package core

import (
	"math/rand"
	"testing"

	"repro/internal/schedule"
)

// randomStageLists draws s per-stage candidate lists of 1..maxLen
// candidates each. T and D come from small quarter-step pools so equal
// values and exact objective ties are common; D ranges over [-T, 2T], so
// the averaged per-stage time t + d/G stays non-negative. Each
// candidate's index within its stage is stamped into Knobs.Layers.
func randomStageLists(rng *rand.Rand, s, maxLen, pool int) [][]candidate {
	lists := make([][]candidate, s)
	for i := range lists {
		n := 1 + rng.Intn(maxLen)
		lists[i] = make([]candidate, n)
		for j := range lists[i] {
			q := 1 + rng.Intn(pool)
			lists[i][j] = candidate{
				Knobs: schedule.Knobs{Layers: j},
				T:     float64(q) / 4,
				D:     float64(rng.Intn(3*q+1)-q) / 4,
			}
		}
	}
	return lists
}

// forEachCombination calls fn with every choice of one candidate per
// stage, as per-stage indices.
func forEachCombination(lists [][]candidate, fn func(idx []int)) {
	idx := make([]int, len(lists))
	for {
		fn(idx)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(lists[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// TestIncumbentBoundIsSound checks the incumbent bound against a
// brute-force oracle: with U the objective of a random combination of
// seeded random stage lists, every candidate of every combination whose
// objective is <= U (exact ties included) must survive pruneByBound, and
// pairBound.add must never abandon the pair, since it holds a
// combination no worse than U.
func TestIncumbentBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pruned, ties := 0, 0
	for trial := 0; trial < 2000; trial++ {
		s := 1 + rng.Intn(4)
		g := 1 + rng.Intn(8)
		lists := randomStageLists(rng, s, 5, 2+rng.Intn(10))
		tn := &Tuner{Space: Space{ImbalanceAware: rng.Intn(2) == 0}}

		pick := make([]candidate, s)
		for i, l := range lists {
			pick[i] = l[rng.Intn(len(l))]
		}
		u := tn.objective(pick, g)

		// Oracle: the per-stage candidates that appear in some
		// combination with objective <= U.
		needed := make([]map[int]bool, s)
		for i := range needed {
			needed[i] = map[int]bool{}
		}
		sel := make([]candidate, s)
		forEachCombination(lists, func(idx []int) {
			for i, j := range idx {
				sel[i] = lists[i][j]
			}
			if tn.objective(sel, g) <= u {
				for i, j := range idx {
					needed[i][j] = true
				}
			}
		})

		tn.offerIncumbent(u)
		var pb pairBound
		for i, l := range lists {
			for _, c := range l {
				if v := boundValue(c, g); float64(g-1)*v+v == u {
					ties++
				}
			}
			before := len(l)
			kept := tn.pruneByBound(append([]candidate(nil), l...), g)
			pruned += before - len(kept)
			survived := map[int]bool{}
			for _, c := range kept {
				survived[c.Knobs.Layers] = true
			}
			for j := range needed[i] {
				if !survived[j] {
					t.Fatalf("trial %d (S=%d G=%d imbalance=%v U=%v): stage %d candidate %+v is in a combination <= U but was pruned",
						trial, s, g, tn.Space.ImbalanceAware, u, i, l[j])
				}
			}
			if pb.add(kept, g, tn.bound()) {
				t.Fatalf("trial %d (S=%d G=%d imbalance=%v U=%v): pair abandoned at stage %d although a combination reaches U",
					trial, s, g, tn.Space.ImbalanceAware, u, i)
			}
		}
	}
	// Guard against a vacuous oracle: the draws must both prune and
	// produce candidates whose bound ties U exactly.
	if pruned == 0 || ties == 0 {
		t.Fatalf("oracle exercised nothing: %d candidates pruned, %d exact ties", pruned, ties)
	}
}
