package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/schedule"
)

// randomCandidates draws n candidates whose T and D come from small
// value pools, so equal T, equal D and exact (T, D) duplicates are
// common. Each candidate's enumeration index is stamped into
// Knobs.Layers so results can be traced back to their input position.
func randomCandidates(rng *rand.Rand, n, pool int) []candidate {
	cands := make([]candidate, n)
	for i := range cands {
		cands[i] = candidate{
			Knobs: schedule.Knobs{Layers: i},
			T:     float64(rng.Intn(pool)) / 4,
			D:     float64(rng.Intn(pool)-pool/4) / 4, // some negative deltas
		}
	}
	return cands
}

// bruteFrontier is the O(n²) dominance oracle: a candidate survives when
// no other candidate dominates it (<= in both objectives, < in at least
// one) and no lower-index candidate has exactly its (T, D). Survivors
// are returned in ascending T.
func bruteFrontier(cands []candidate) []candidate {
	var out []candidate
	for i, c := range cands {
		kept := true
		for j, o := range cands {
			dominates := o.T <= c.T && o.D <= c.D && (o.T < c.T || o.D < c.D)
			earlierDup := j < i && o.T == c.T && o.D == c.D
			if dominates || earlierDup {
				kept = false
				break
			}
		}
		if kept {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].T < out[b].T })
	return out
}

// TestParetoFrontierMatchesBruteForce checks paretoFrontier against the
// dominance oracle on seeded random candidate sets, reusing one scratch
// across sets the way a pair's stage loop does.
func TestParetoFrontierMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := &sweepScratch{}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		pool := 2 + rng.Intn(12)
		cands := randomCandidates(rng, n, pool)
		want := bruteFrontier(cands)
		got := paretoFrontier(cands, sc)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d, pool=%d): frontier has %d points, oracle %d\ngot  %+v\nwant %+v",
				trial, n, pool, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d, pool=%d): point %d is %+v, oracle %+v",
					trial, n, pool, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkParetoFrontier measures the frontier of one realistic
// intra-stage candidate list (a few thousand priced configurations with
// a sparse frontier) on a warm scratch.
func BenchmarkParetoFrontier(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cands := make([]candidate, 4096)
	for i := range cands {
		t := 1 + rng.Float64()
		cands[i] = candidate{
			Knobs: schedule.Knobs{Layers: i},
			T:     t,
			D:     2/t + rng.Float64(),
		}
	}
	sc := &sweepScratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paretoFrontier(cands, sc)
	}
}
