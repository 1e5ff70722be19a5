package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs is sorted in place. 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeOp measures a call's cost: it repeats fn in batches of n calls
// until about budget has passed (at least 5 batches) and returns the
// median per-call time of the batches in nanoseconds, and the number of
// calls made.
func timeOp(budget time.Duration, n int, fn func()) (float64, int) {
	var per []float64
	start := time.Now()
	calls := 0
	for len(per) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
		calls += n
		if len(per) >= 1000 {
			break
		}
	}
	return median(per), calls
}
