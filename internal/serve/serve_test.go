package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallSpec is a workload cheap enough to tune in test time; the
// DeepSpeed space keeps the candidate grid compact.
func smallSpec() WorkloadSpec {
	return WorkloadSpec{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Space: "deepspeed"}
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(&readTee{r: resp, buf: &buf}).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		_, _ = buf.ReadFrom(resp.Body)
	}
	return resp.StatusCode, buf.String()
}

type readTee struct {
	r   *http.Response
	buf *bytes.Buffer
}

func (rt *readTee) Read(p []byte) (int, error) {
	n, err := rt.r.Body.Read(p)
	rt.buf.Write(p[:n])
	return n, err
}

func TestTuneAndPlanCache(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first TuneResponse
	status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &first)
	if status != http.StatusOK {
		t.Fatalf("first /tune: status %d body %s", status, body)
	}
	if first.Plan == nil || first.Predicted <= 0 {
		t.Fatalf("bad tune response: %+v", first)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	// Every candidate priced is one analyzer evaluation; no memo layer
	// answers any of them.
	if first.EvalCacheHits != 0 || first.EvalCacheMiss != uint64(first.Candidates) || first.EvalHitRate != 0 {
		t.Errorf("eval traffic hits %d misses %d rate %v, want 0 / %d candidates / 0",
			first.EvalCacheHits, first.EvalCacheMiss, first.EvalHitRate, first.Candidates)
	}

	var second TuneResponse
	status, body = postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &second)
	if status != http.StatusOK {
		t.Fatalf("second /tune: status %d body %s", status, body)
	}
	if !second.FromStore || second.Cached {
		t.Errorf("repeated request not answered by the plan store: fromStore %v cached %v", second.FromStore, second.Cached)
	}
	a, _ := json.Marshal(first.Plan)
	b, _ := json.Marshal(second.Plan)
	if !bytes.Equal(a, b) {
		t.Errorf("stored plan differs:\n%s\nvs\n%s", a, b)
	}

	st := s.Stats()
	if st.TunesRun != 1 {
		t.Errorf("tuner ran %d times, want 1", st.TunesRun)
	}
	if st.StoreHits != 1 || st.TuneRequests != 2 || st.StoreSize != 1 || st.TuneCoalesced != 0 {
		t.Errorf("stats %+v", st)
	}
}

// Concurrent identical requests coalesce onto a single tuner run and
// all receive the same plan.
func TestConcurrentTuneRequestsCoalesce(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	plans := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp TuneResponse
			status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &resp)
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d body %s", i, status, body)
				return
			}
			plans[i], _ = json.Marshal(resp.Plan)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(plans[0], plans[i]) {
			t.Errorf("client %d received a different plan", i)
		}
	}
	if st := s.Stats(); st.TunesRun != 1 {
		t.Errorf("tuner ran %d times under concurrent identical requests, want 1", st.TunesRun)
	}
}

// Callers arriving at spread-out offsets across one search's
// completion — some while it runs, some after its plan is stored — all
// get the same plan from one search: each reply is the leader's, a
// coalesced copy of it (Cached) or a store answer (FromStore).
func TestStaggeredTuneArrivals(t *testing.T) {
	spec := WorkloadSpec{Model: "gpt3-1.3b", GPUs: 4, Batch: 16, Space: "mist"}
	// Time one cold search (calibration included) on a separate server
	// so the arrivals can be spread across a search of the same length.
	probe := New()
	t0 := time.Now()
	if _, err := probe.tuneCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	span := 2 * time.Since(t0)
	probe.Close()

	s := New()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 16
	replies := make([]TuneResponse, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(span * time.Duration(i) / clients)
			status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: spec}, &replies[i])
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d body %s", i, status, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	leaders, cached, stored := 0, 0, 0
	want, _ := json.Marshal(replies[0].Plan)
	for i, r := range replies {
		switch {
		case r.Cached:
			cached++
		case r.FromStore:
			stored++
		default:
			leaders++
		}
		if got, _ := json.Marshal(r.Plan); !bytes.Equal(got, want) {
			t.Errorf("client %d received a different plan", i)
		}
	}
	t.Logf("%d leader, %d coalesced, %d from store over %v", leaders, cached, stored, span)
	if leaders != 1 {
		t.Errorf("%d replies came from a search, want 1", leaders)
	}
	st := s.Stats()
	if st.TunesRun != 1 {
		t.Errorf("tuner ran %d times, want 1", st.TunesRun)
	}
	if st.TuneCoalesced != uint64(cached) || st.StoreHits != uint64(stored) {
		t.Errorf("stats coalesced %d storeHits %d, replies %d / %d", st.TuneCoalesced, st.StoreHits, cached, stored)
	}

	// A caller that missed the store just before the search retired
	// leads with the plan already stored: its store check answers.
	w, cl, space, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := s.runTune(context.Background(), spec, w, cl, space); err != nil || !resp.FromStore {
		t.Errorf("late leader: err %v, reply %+v; want a store answer", err, resp)
	}
	if n := s.Stats().TunesRun; n != 1 {
		t.Errorf("late leader searched: tuner ran %d times, want 1", n)
	}
}

// Waiters coalesced onto a search that fails are not answered by it:
// concurrent requests for an infeasible spec all get 422, and neither
// /stats nor /metrics counts a coalesced answer.
func TestFailedCoalescedSearchIsNoCacheHit(t *testing.T) {
	s := New()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	infeasible := WorkloadSpec{Model: "gpt3-7b", GPUs: 2, Batch: 8, Seq: 4096, Space: "3d"}
	const clients = 8
	start := make(chan struct{})
	statuses := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, _ := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: infeasible}, nil)
			statuses <- status
		}()
	}
	close(start)
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusUnprocessableEntity {
			t.Errorf("infeasible workload: status %d, want 422", status)
		}
	}
	if st := s.Stats(); st.TuneCoalesced != 0 {
		t.Errorf("failed searches counted %d coalesced answers", st.TuneCoalesced)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(data), "\nmist_tune_coalesced_total 0\n") {
		t.Errorf("/metrics should report zero coalesced answers:\n%s", data)
	}
}

func TestSimulateTunesOnDemandAndAcceptsInlinePlan(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sim SimulateResponse
	status, body := postJSON(t, ts.URL+"/simulate", SimulateRequest{WorkloadSpec: smallSpec()}, &sim)
	if status != http.StatusOK {
		t.Fatalf("/simulate: status %d body %s", status, body)
	}
	if sim.IterTime <= 0 || sim.Throughput <= 0 || len(sim.PeakMem) == 0 {
		t.Fatalf("bad measurement: %+v", sim)
	}
	if sim.TunedPlan == nil {
		t.Error("on-demand tuned plan not echoed")
	}
	if sim.OOM {
		t.Error("tuned plan OOMs in simulation")
	}
	// The on-demand tune populated the plan store.
	if st := s.Stats(); st.TunesRun != 1 || st.SimulateRequests != 1 {
		t.Errorf("stats %+v", st)
	}

	// Re-simulate with the tuned plan inlined: no further tuner runs.
	var sim2 SimulateResponse
	req := SimulateRequest{WorkloadSpec: smallSpec(), Plan: sim.TunedPlan}
	status, body = postJSON(t, ts.URL+"/simulate", req, &sim2)
	if status != http.StatusOK {
		t.Fatalf("inline-plan /simulate: status %d body %s", status, body)
	}
	if sim2.TunedPlan != nil {
		t.Error("inline-plan simulate should not echo a tuned plan")
	}
	if sim2.IterTime != sim.IterTime {
		t.Errorf("inline plan measured %v, on-demand %v", sim2.IterTime, sim.IterTime)
	}
	if st := s.Stats(); st.TunesRun != 1 {
		t.Errorf("inline-plan simulate re-ran the tuner: %+v", st)
	}
}

func TestErrorPaths(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unknown model -> 400, and the failure is not cached.
	bad := smallSpec()
	bad.Model = "gpt9-999t"
	status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: bad}, nil)
	if status != http.StatusBadRequest {
		t.Errorf("unknown model: status %d body %s", status, body)
	}
	// Malformed JSON -> 400.
	resp, err := http.Post(ts.URL+"/tune", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	// GET /tune -> 405.
	resp, err = http.Get(ts.URL + "/tune")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /tune: status %d", resp.StatusCode)
	}
	// Infeasible workload -> 422 (no plan fits 2 GPUs without memory
	// optimizations at seq 4096).
	infeasible := WorkloadSpec{Model: "gpt3-7b", GPUs: 2, Batch: 8, Seq: 4096, Space: "3d"}
	infeasible.Space = "3d"
	status, body = postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: infeasible}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("infeasible workload: status %d body %s", status, body)
	}
	if st := s.Stats(); st.StoreSize != 0 {
		t.Errorf("failed requests were stored: %+v", st)
	}

	if status, _ := postJSON(t, ts.URL+"/simulate", SimulateRequest{WorkloadSpec: bad}, nil); status != http.StatusBadRequest {
		t.Errorf("simulate with unknown model: status %d", status)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	var health map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || !health["ok"] {
		t.Errorf("bad health body: %v %v", health, err)
	}

	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TuneRequests != 0 || st.TunesRun != 0 {
		t.Errorf("fresh server has traffic: %+v", st)
	}
}

// Full lifecycle: serve on a real socket, answer a request, then cancel
// the context and verify the graceful shutdown completes.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- New().ListenAndServe(ctx, addr, 5*time.Second) }()

	// Wait for the listener to come up.
	url := "http://" + addr + "/healthz"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("graceful shutdown timed out")
	}
}
