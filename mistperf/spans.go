package main

import (
	"time"

	"repro/internal/trace"
)

// traceSet merges published trace portions (from one or many nodes) by
// trace id, so a span's children include a peer's hop portion parented
// under it.
type traceSet struct {
	spans map[string][]trace.SpanData
}

func newTraceSet() *traceSet { return &traceSet{spans: map[string][]trace.SpanData{}} }

func (ts *traceSet) add(portions []trace.TraceData) {
	for _, p := range portions {
		ts.spans[p.TraceID] = append(ts.spans[p.TraceID], p.Spans...)
	}
}

func (ts *traceSet) traces() int { return len(ts.spans) }

// walk calls fn for every span named name with its duration and self
// time (duration minus its direct children's durations, floored at 0:
// children of a concurrent fan-out may overlap).
func (ts *traceSet) walk(name string, fn func(traceID string, total, self time.Duration)) {
	for id, spans := range ts.spans {
		children := map[string]int64{}
		for _, sp := range spans {
			if sp.Parent != "" {
				children[sp.Parent] += sp.DurationNs
			}
		}
		for _, sp := range spans {
			if sp.Name != name {
				continue
			}
			self := sp.DurationNs - children[sp.ID]
			if self < 0 {
				self = 0
			}
			fn(id, time.Duration(sp.DurationNs), time.Duration(self))
		}
	}
}

// durations returns every occurrence's duration (self=false) or self
// time (self=true) in milliseconds.
func (ts *traceSet) durations(name string, self bool) []float64 {
	var out []float64
	ts.walk(name, func(_ string, total, s time.Duration) {
		if self {
			out = append(out, ms(s))
		} else {
			out = append(out, ms(total))
		}
	})
	return out
}

// selfPerTrace sums a span's self time within each trace that contains
// the marker span, in milliseconds per trace (one value per such
// trace).
func (ts *traceSet) selfPerTrace(name, marker string) []float64 {
	has := map[string]bool{}
	ts.walk(marker, func(id string, _, _ time.Duration) { has[id] = true })
	sum := map[string]float64{}
	for id := range has {
		sum[id] = 0
	}
	ts.walk(name, func(id string, _, s time.Duration) {
		if has[id] {
			sum[id] += ms(s)
		}
	})
	out := make([]float64, 0, len(sum))
	for _, v := range sum {
		out = append(out, v)
	}
	return out
}

// setSpanMetric reports the median of a span sample, or marks the
// metric absent when the traced run saw none.
func setSpanMetric(r *result, name string, xs []float64, why string) {
	if len(xs) == 0 {
		r.absent(name, "ms", why)
		return
	}
	r.set(name, median(xs), "ms", len(xs))
}
