package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAnalyzerRegistryEvictsColdest pins the LRU entry bound: with room
// for two fingerprints, a third evicts the least recently used one, a
// surviving entry is reused rather than recalibrated, and an evicted one
// is rebuilt on its next request.
func TestAnalyzerRegistryEvictsColdest(t *testing.T) {
	r := newAnalyzerRegistry(2)
	acquire := func(seq int) bool {
		t.Helper()
		ws := smallSpec()
		ws.Seq = seq // distinct analyzer fingerprint per sequence length
		w, cl, space, err := ws.normalize()
		if err != nil {
			t.Fatalf("normalize seq=%d: %v", seq, err)
		}
		_, reused, err := r.acquire(ws, w, cl, space)
		if err != nil {
			t.Fatalf("acquire seq=%d: %v", seq, err)
		}
		return reused
	}
	const a, b, c = 512, 1024, 4096
	if acquire(a) || acquire(b) {
		t.Fatal("first acquisitions reported reuse")
	}
	if !acquire(a) {
		t.Fatal("second acquisition of A recalibrated")
	}
	acquire(c) // B is now the coldest entry
	if entries, evictions := r.snapshot(); entries != 2 || evictions != 1 {
		t.Fatalf("after C: %d entries / %d evictions, want 2 / 1", entries, evictions)
	}
	if !acquire(a) {
		t.Error("A was evicted although B was colder")
	}
	if acquire(b) {
		t.Error("B survived although it was the coldest entry")
	}
	// Re-admitting B evicted C, the coldest of {A, C}.
	if !acquire(a) {
		t.Error("A was evicted on B's return")
	}
	if acquire(c) {
		t.Error("C survived B's return although it was the coldest entry")
	}
}

// TestAnalyzerOnlyEntriesBounded pins the /simulate-path bound: the
// fingerprint components are user-controlled (Seq up to 65536, GPUs up
// to 4096), so a flood of inline-plan /simulate requests with distinct
// fingerprints — each calibrating an analyzer and running no search —
// must never grow the registry past its bound.
func TestAnalyzerOnlyEntriesBounded(t *testing.T) {
	s := New()
	defer s.Close()
	const bound = 2
	s.analyzers = newAnalyzerRegistry(bound)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var tuned TuneResponse
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &tuned); status != http.StatusOK {
		t.Fatalf("tune: status %d body %s", status, body)
	}
	seqs := []int{512, 1024, 4096, 8192, 16384}
	for _, seq := range seqs {
		ws := smallSpec()
		ws.Seq = seq
		if status, body := postJSON(t, ts.URL+"/simulate", SimulateRequest{WorkloadSpec: ws, Plan: tuned.Plan}, nil); status != http.StatusOK {
			t.Fatalf("simulate seq=%d: status %d body %s", seq, status, body)
		}
		if st := s.Stats(); st.Analyzers > bound {
			t.Fatalf("after seq=%d the registry holds %d analyzers, bound %d", seq, st.Analyzers, bound)
		}
	}
	st := s.Stats()
	if st.TunesRun != 1 {
		t.Errorf("ran %d searches, want 1 (the flood must not search)", st.TunesRun)
	}
	fingerprints := 1 + len(seqs)
	if want := uint64(fingerprints - bound); st.Analyzers != bound || st.AnalyzerEvictions != want {
		t.Errorf("%d analyzers / %d evictions after %d fingerprints, want %d / %d",
			st.Analyzers, st.AnalyzerEvictions, fingerprints, bound, want)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"mist_analyzers 2", "mist_analyzer_evictions_total 4"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
