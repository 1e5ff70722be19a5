package store

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// jsonDocs lists the record documents in a store directory.
func jsonDocs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, n := range names {
		out[filepath.Base(n)] = true
	}
	return out
}

func seqFP(seq int) Fingerprint {
	f := fp("gpt3-1.3b", 2, 8)
	f.Seq = seq
	return f
}

// TestRecordBound pins the store's record bound: each class — local
// writes (PutCtx) and peer replicas (Apply) — holds at most limit
// records; one too many evicts that class's record with the oldest
// UpdatedAt (ties by key) from the index and from disk, and never a
// record of the other class; an eviction fires no onPut hook; rewriting
// a held fingerprint evicts nothing.
func TestRecordBound(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var hooked []string
	s.SetOnPut(func(_ context.Context, rec Record) { hooked = append(hooked, rec.Fingerprint.Key()) })
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	apply := func(f Fingerprint, at time.Time) {
		t.Helper()
		if ok, err := s.Apply(Record{Fingerprint: f, Plan: tinyPlan(1), Version: 1, UpdatedAt: at}); err != nil || !ok {
			t.Fatalf("apply %s: %v %v", f.Key(), ok, err)
		}
	}
	put := func(f Fingerprint) {
		t.Helper()
		if _, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(1)}); err != nil {
			t.Fatal(err)
		}
	}
	held := func(f Fingerprint) bool {
		_, ok := s.Get(f)
		return ok
	}

	// Two replicas, both older than any local write, and two local
	// writes: a full store of 2 + 2 evicts nothing.
	r1, r2 := seqFP(1), seqFP(2)
	apply(r1, t0.Add(time.Hour))
	apply(r2, t0)
	l1, l2 := seqFP(11), seqFP(12)
	put(l1)
	put(l2)
	if s.Len() != 4 || s.Evictions() != 0 {
		t.Fatalf("two full classes: len %d evictions %d, want 4 / 0", s.Len(), s.Evictions())
	}

	// A third local write evicts the oldest local write, not the older
	// replicas, from the index and from disk.
	l3 := seqFP(13)
	put(l3)
	if held(l1) || !held(l2) || !held(l3) || !held(r1) || !held(r2) {
		t.Errorf("local overflow: held l1 %v l2 %v l3 %v r1 %v r2 %v, want only l1 gone",
			held(l1), held(l2), held(l3), held(r1), held(r2))
	}
	if docs := jsonDocs(t, dir); len(docs) != 4 || docs[fileName(l1)] {
		t.Errorf("disk holds %d documents (evicted present: %v), want 4 without the evicted one", len(docs), docs[fileName(l1)])
	}
	if s.Evictions() != 1 || len(hooked) != 3 || hooked[2] != l3.Key() {
		t.Errorf("evictions %d, onPut saw %v; want 1 and only the three puts", s.Evictions(), hooked)
	}

	// Rewriting a held local write is not an overflow.
	put(l2)
	if s.Len() != 4 || s.Evictions() != 1 {
		t.Errorf("re-put of a held key: len %d evictions %d, want 4 / 1", s.Len(), s.Evictions())
	}

	// A third replica evicts the oldest replica (r2, t0), not a local
	// write, and fires no hook.
	r3 := seqFP(3)
	apply(r3, t0.Add(2*time.Hour))
	if held(r2) || !held(r1) || !held(r3) || !held(l2) || !held(l3) {
		t.Errorf("replica overflow: held r1 %v r2 %v r3 %v l2 %v l3 %v, want only r2 gone",
			held(r1), held(r2), held(r3), held(l2), held(l3))
	}
	if s.Len() != 4 || s.Evictions() != 2 || len(hooked) != 4 || jsonDocs(t, dir)[fileName(r2)] {
		t.Errorf("after replica overflow: len %d evictions %d hooks %d, want 4 / 2 / 4 and r2's document gone",
			s.Len(), s.Evictions(), len(hooked))
	}

	// A newer version of a held local write arriving by Apply keeps it a
	// local write: no class overflows.
	cur, _ := s.Get(l3)
	if ok, err := s.Apply(Record{Fingerprint: l3, Plan: tinyPlan(1), Version: cur.Version + 1, UpdatedAt: t0}); err != nil || !ok {
		t.Fatalf("apply newer version: %v %v", ok, err)
	}
	if s.Len() != 4 || s.Evictions() != 2 {
		t.Errorf("apply onto a held key: len %d evictions %d, want 4 / 2", s.Len(), s.Evictions())
	}

	// Re-tuning a replica here makes it a local write: the local class
	// overflows and drops its oldest, l3 (its UpdatedAt is now t0).
	put(r1)
	if held(l3) || !held(l2) || !held(r1) || !held(r3) {
		t.Errorf("replica re-put: held l2 %v l3 %v r1 %v r3 %v, want only l3 gone", held(l2), held(l3), held(r1), held(r3))
	}
	if s.Len() != 3 || s.Evictions() != 3 {
		t.Errorf("replica re-put: len %d evictions %d, want 3 / 3", s.Len(), s.Evictions())
	}
}

// TestRecordBoundTiesAndFailedWrites pins the tie-break (equal
// UpdatedAt: the smaller key goes first) and that a write which fails
// to reach disk evicts nothing: the victim is only removed once the
// incoming record is durably stored.
func TestRecordBoundTiesAndFailedWrites(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tied, err := open("", 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := seqFP(1), seqFP(2), seqFP(3)
	for _, r := range []struct {
		f  Fingerprint
		at time.Time
	}{{c, t0}, {b, t0}, {a, t0.Add(time.Hour)}} {
		if _, err := tied.Apply(Record{Fingerprint: r.f, Plan: tinyPlan(1), Version: 1, UpdatedAt: r.at}); err != nil {
			t.Fatal(err)
		}
	}
	small, large := b, c
	if c.Key() < b.Key() {
		small, large = c, b
	}
	if _, ok := tied.Get(small); ok {
		t.Errorf("tie on UpdatedAt kept the smaller key %s", small.Key())
	}
	if _, ok := tied.Get(large); !ok {
		t.Errorf("tie on UpdatedAt evicted the larger key %s", large.Key())
	}

	dir := t.TempDir()
	s, err := open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Record{Fingerprint: a, Plan: tinyPlan(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Record{Fingerprint: b, Plan: tinyPlan(1), Version: 1, UpdatedAt: t0}); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Record{Fingerprint: c, Plan: tinyPlan(1)}); err == nil {
		t.Fatal("put into a removed directory succeeded")
	}
	if _, err := s.Apply(Record{Fingerprint: c, Plan: tinyPlan(1), Version: 1, UpdatedAt: t0.Add(time.Hour)}); err == nil {
		t.Fatal("apply into a removed directory succeeded")
	}
	_, okA := s.Get(a)
	_, okB := s.Get(b)
	if !okA || !okB || s.Len() != 2 || s.Evictions() != 0 {
		t.Errorf("failed writes: held a %v b %v, len %d evictions %d; want both held, 2 / 0", okA, okB, s.Len(), s.Evictions())
	}
}

// TestOpenTrimsOverfullDirectory: records loaded from disk count as
// local writes, so a directory holding more than the bound keeps only
// the newest ones, in the index and on disk.
func TestOpenTrimsOverfullDirectory(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	full := t.TempDir()
	w, err := open(full, 10)
	if err != nil {
		t.Fatal(err)
	}
	var fps []Fingerprint
	for i := 0; i < 5; i++ {
		f := seqFP(1 + i)
		fps = append(fps, f)
		if _, err := w.Apply(Record{Fingerprint: f, Plan: tinyPlan(1), Version: 1, UpdatedAt: t0.Add(time.Duration(i) * time.Hour)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := open(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Evictions() != 3 {
		t.Errorf("trimmed open: len %d evictions %d, want 2 / 3", r.Len(), r.Evictions())
	}
	for i, f := range fps {
		if _, ok := r.Get(f); ok != (i >= 3) {
			t.Errorf("record %d (age rank %d) indexed=%v after trim", i, i, ok)
		}
	}
	if docs := jsonDocs(t, full); len(docs) != 2 || docs[fileName(fps[0])] {
		t.Errorf("trimmed directory holds %d documents (oldest present: %v), want the 2 newest", len(docs), docs[fileName(fps[0])])
	}
}

// TestDefaultBound floods a default store — the one serve.New attaches
// when no store is given — with more distinct fingerprints than
// maxRecords, through both write paths; it never holds more than
// maxRecords of either.
func TestDefaultBound(t *testing.T) {
	s := InMemory()
	const over = maxRecords + 8
	for i := 0; i < over; i++ {
		if _, err := s.Put(Record{Fingerprint: seqFP(1 + i), Plan: tinyPlan(1)}); err != nil {
			t.Fatal(err)
		}
		if s.Len() > maxRecords {
			t.Fatalf("store holds %d records after %d puts, bound %d", s.Len(), i+1, maxRecords)
		}
	}
	if s.Len() != maxRecords || s.Evictions() != 8 {
		t.Errorf("after puts: len %d evictions %d, want %d / 8", s.Len(), s.Evictions(), maxRecords)
	}
	for i := 0; i < over; i++ {
		rec := Record{Fingerprint: seqFP(1_000_000 + i), Plan: tinyPlan(1), Version: 1, UpdatedAt: time.Now()}
		if _, err := s.Apply(rec); err != nil {
			t.Fatal(err)
		}
		if s.Len() > 2*maxRecords {
			t.Fatalf("store holds %d records after %d applies, bound %d per class", s.Len(), i+1, maxRecords)
		}
	}
	if s.Len() != 2*maxRecords || s.Evictions() != 16 {
		t.Errorf("after applies: len %d evictions %d, want %d / 16", s.Len(), s.Evictions(), 2*maxRecords)
	}
}
