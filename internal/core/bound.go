package core

import "math"

// Incumbent-bound pruning. Every completed (S, G) pair publishes its
// optimum into the tuner's global incumbent (offerIncumbent), and pairs
// still in flight prune against the best objective U known so far:
//
//  1. Any candidate c with G·(t_c + min(0, d_c)/G) > U cannot appear in
//     a solution matching U — the objective is at least
//     (G-1)·maxT + ΣT >= G·t_c (imbalance-aware; the averaged objective
//     substitutes τ = t + d/G) — so it is pruned before inter-stage
//     selection (pruneByBound).
//  2. During a pair's stage-by-stage sweep, the per-stage candidate
//     minima accumulate into the same lower bound; once
//     (G-1)·max_j m_j + Σ_j m_j > U the pair is abandoned before its
//     remaining stages are priced (pairBound) — that is where pruning
//     saves analyzer evaluations outright.
//
// Both comparisons are strict, so every candidate of every solution
// tying the final optimum survives: the (objective, S, G) tie-break
// sees exactly the tie set an unpruned search would, and the chosen
// plan is bit-identical.

// bound returns the current incumbent objective: the best complete
// solution known so far (+Inf before any), the pruning threshold for
// pruneByBound and pairBound. The incumbent's zero bits mean no
// solution yet (objectives are positive), so a fresh Tuner prunes
// nothing.
func (t *Tuner) bound() float64 {
	b := t.incumbent.Load()
	if b == 0 {
		return math.Inf(1)
	}
	return math.Float64frombits(b)
}

// offerIncumbent lowers the incumbent bound to obj if it improves on the
// current one (CAS-min over the float bits; positive finite floats order
// the same as their bit patterns, but comparing as floats keeps this
// obviously correct).
func (t *Tuner) offerIncumbent(obj float64) {
	if !(obj > 0) || math.IsInf(obj, 1) {
		return
	}
	for {
		cur := t.incumbent.Load()
		if cur != 0 && math.Float64frombits(cur) <= obj {
			return
		}
		if t.incumbent.CompareAndSwap(cur, math.Float64bits(obj)) {
			return
		}
	}
}

// boundValue is the per-candidate quantity whose G-fold multiple lower
// bounds any objective the candidate can participate in, valid for both
// the imbalance-aware objective ((G-1)maxT + ΣT + Dm, Dm >= 0) and the
// averaged one ((G-1)maxτ + Στ with τ = t + d/G).
func boundValue(c candidate, g int) float64 {
	v := c.T
	if c.D < 0 {
		v += c.D / float64(g)
	}
	return v
}

// pruneByBound drops candidates that provably cannot beat the incumbent
// objective, counting them into the pruning telemetry. The comparison is
// strict: a candidate whose lower bound exactly equals the incumbent is
// kept, so every candidate of any solution tying the final optimum
// survives. The bound G·v is evaluated as (G-1)·v + v, the same float
// operations objective applies to a stage time, so rounding can never
// lift it above the objective of a solution it belongs to.
func (t *Tuner) pruneByBound(cands []candidate, g int) []candidate {
	bound := t.bound()
	if math.IsInf(bound, 1) {
		return cands
	}
	kept := cands[:0]
	for _, c := range cands {
		if v := boundValue(c, g); float64(g-1)*v+v > bound {
			t.pruned.Add(1)
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// pairBound maintains the running (S, G)-pair lower bound of rule 2:
// per-stage candidate minima accumulated as stages are priced.
type pairBound struct {
	sum, max float64
}

// add folds one stage's candidate list into the bound and reports
// whether the pair is now provably worse than the incumbent. Strict
// comparison again: a pair whose lower bound ties the incumbent may
// still realize exactly that objective, and abandoning it would change
// which pairs participate in the final (objective, S, G) tie-break.
func (pb *pairBound) add(cands []candidate, g int, incumbent float64) (pruned bool) {
	if math.IsInf(incumbent, 1) || len(cands) == 0 {
		return false
	}
	m := math.Inf(1)
	for _, c := range cands {
		if v := boundValue(c, g); v < m {
			m = v
		}
	}
	pb.sum += m
	if m > pb.max {
		pb.max = m
	}
	return float64(g-1)*pb.max+pb.sum > incumbent
}

// boundPrunedError marks an (S, G) pair abandoned because the incumbent
// bound proved it could not improve on the best solution found so far.
// Callers treat it exactly like an infeasible pair.
type boundPrunedError struct{ s, g int }

func (e *boundPrunedError) Error() string {
	return "core: (S, G) pair pruned by incumbent bound"
}
