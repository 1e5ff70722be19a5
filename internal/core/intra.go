package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/schedule"
)

// intraSem bounds the extra goroutines spawned by intra-stage pricing
// across every concurrent tuner in the process; callers price inline
// regardless, so exhaustion degrades to sequential work, never blocks.
var intraSem = make(chan struct{}, runtime.GOMAXPROCS(0))

// candidate is one priced intra-stage configuration: a complete stage
// shape plus knobs, with its stable time t, delta d, and peak memory.
type candidate struct {
	Shape schedule.StageShape
	Knobs schedule.Knobs
	T, D  float64
	Mem   float64
}

// evalScratch is the per-pricing-goroutine buffer set: the analyzer's
// scratch plus a reusable result slice. Pooled because intraStage's inner
// fan-out borrows transient goroutines.
type evalScratch struct {
	eval schedule.EvalScratch
	dst  []schedule.Result
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// sweepScratch is the per-intraStage-call buffer set: the shape list, the
// per-shape output table, one arena backing every shape's candidate
// segment, and the Pareto sort buffers. One sweepScratch serves a whole
// (S, G) pair's stage loop (tuneSG holds it for the pair's lifetime);
// candidates are value-copied out by paretoSample before reuse.
type sweepScratch struct {
	shapes []schedule.StageShape
	outs   []shapeOut
	arena  []candidate
	keys   []paretoKey
	front  []candidate
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// shapeOut is one shape's pricing outcome: its candidate segment (backed
// by the sweep arena), the number of evaluator candidates actually
// priced (0 when the shape was never claimed or errored before pricing),
// and any error.
type shapeOut struct {
	cands []candidate
	n     int
	err   error
}

// intraStage enumerates and prices every (b, DP, TP, ZeRO, CKPT, WO, GO,
// OO, AO) combination for one pipeline stage position and one layer
// count, returning the feasible candidates. This is the paper's
// brute-force intra-stage sweep (§5.3: "querying single datapoints is
// extremely fast ... we simply search in a brute-force way").
// planSafetyFraction leaves headroom between the analyzer's closed-form
// memory estimate and the budget: the runtime's allocator fragmentation
// (page rounding in the execution engine, ~2% in the paper's §6.6 memory
// error) would otherwise push boundary plans into OOM at execution.
const planSafetyFraction = 0.96

// The returned candidate slice is backed by sc's arena and only valid
// until the next intraStage call on the same scratch; the evaluated
// count is exact — it tallies precisely the candidates the evaluator
// priced, including shapes whose batches completed after another shape
// failed, so it reconciles with the tuner's evaluation counter.
func (t *Tuner) intraStage(s, g, stageIdx, devPerStage, layers int, sc *sweepScratch) ([]candidate, int, error) {
	budget := t.Cluster.MemoryBudget() * planSafetyFraction
	knobs := t.knobSet(layers)

	// Enumerate the stage shapes, then price them on a bounded worker
	// pool (the intra-stage counterpart of Tune's (S, G) fan-out). The
	// per-shape candidate slices are reassembled in enumeration order so
	// the search stays deterministic regardless of scheduling.
	shapes := sc.shapes[:0]
	for _, pt := range t.parallelisms(devPerStage, g) {
		for _, zero := range t.Space.zeroLevels() {
			if zero > 0 && pt.dp == 1 {
				continue // ZeRO is a no-op without data parallelism
			}
			shapes = append(shapes, schedule.StageShape{
				B: pt.b, DP: pt.dp, TP: pt.tp, ZeRO: zero,
				HasPre: stageIdx == 0, HasPost: stageIdx == s-1,
				NumStages: s, StageIdx: stageIdx, GradAccum: g,
			})
		}
	}
	sc.shapes = shapes

	if cap(sc.outs) < len(shapes) {
		sc.outs = make([]shapeOut, len(shapes))
	}
	outs := sc.outs[:len(shapes)]
	for i := range outs {
		outs[i] = shapeOut{}
	}
	// Disjoint per-shape arena segments let concurrent workers append
	// candidates without synchronization or per-shape allocations.
	if need := len(shapes) * len(knobs); cap(sc.arena) < need {
		sc.arena = make([]candidate, need)
	}
	arena := sc.arena[:cap(sc.arena)]

	price := func(i int, es *evalScratch) {
		shape := shapes[i]
		results, err := t.priceBatch(shape, knobs, es)
		if err != nil {
			outs[i].err = err
			return
		}
		seg := arena[i*len(knobs) : i*len(knobs) : (i+1)*len(knobs)]
		for j, r := range results {
			if !r.Fits(budget) {
				continue
			}
			seg = append(seg, candidate{
				Shape: shape, Knobs: knobs[j],
				T: r.Stable, D: r.Delta, Mem: r.PeakMem,
			})
		}
		outs[i].cands = seg
		outs[i].n = len(knobs)
	}

	// Jobs are claimed off an atomic counter. The caller always prices
	// inline (progress without any token), and extra workers spawn only
	// while the process-wide intraSem has capacity — intraStage runs
	// nested inside Tune's (S, G) worker pool, so per-call GOMAXPROCS
	// pools would multiply to ~P^2 runnable goroutines.
	var next atomic.Int64
	drain := func() {
		es := evalScratchPool.Get().(*evalScratch)
		defer evalScratchPool.Put(es)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(shapes) {
				return
			}
			// Per-request deadlines land here: a canceled search stops
			// between shape batches instead of pricing out the sweep.
			if err := t.ctxErr(); err != nil {
				outs[i].err = err
				return
			}
			price(i, es)
		}
	}
	var wg sync.WaitGroup
spawn:
	for n := 1; n < len(shapes); n++ {
		select {
		case intraSem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-intraSem }()
				drain()
			}()
		default:
			break spawn // semaphore exhausted; caller drains inline
		}
	}
	drain()
	wg.Wait()

	// Tally the exact evaluator traffic before surfacing any error:
	// out-of-order workers may have priced (and counted) shapes beyond
	// the first failure.
	evaluated := 0
	var firstErr error
	for i := range outs {
		evaluated += outs[i].n
		if firstErr == nil && outs[i].err != nil {
			firstErr = outs[i].err
		}
	}
	if firstErr != nil {
		return nil, evaluated, firstErr
	}
	// Compact the arena segments into one contiguous candidate list (in
	// enumeration order). Segments are disjoint and arena-ordered, so the
	// write cursor never passes a segment's start: copying down in place
	// is safe.
	out := arena[:0]
	for i := range outs {
		out = append(out, outs[i].cands...)
	}
	return out, evaluated, nil
}

// priceBatch prices one shape's knob batch through the analyzer's
// buffer-reusing batch (or the test override), counting the points into
// the tuner's evaluation counter when the batch succeeds. The returned
// slice is backed by es and valid until its next use.
func (t *Tuner) priceBatch(shape schedule.StageShape, knobs []schedule.Knobs, es *evalScratch) ([]schedule.Result, error) {
	var results []schedule.Result
	var err error
	if t.evOverride != nil {
		results, err = t.evOverride.EvaluateBatch(shape, knobs)
	} else {
		results, err = t.An.EvaluateBatchInto(es.dst, shape, knobs, &es.eval)
		if err == nil {
			es.dst = results[:0]
		}
	}
	if err == nil {
		t.evals.Add(uint64(len(results)))
	}
	return results, err
}

// parallelism is one feasible (tp, dp, b) split of a stage's devices.
type parallelism struct{ tp, dp, b int }

// parallelisms enumerates tensor/data-parallel splits of devPerStage that
// are compatible with the model's head count, the node size (TP stays
// within NVLink/PCIe domains), and the global batch factorization
// b = B / (G * dp).
func (t *Tuner) parallelisms(devPerStage, g int) []parallelism {
	maxTP := t.Cluster.GPUsPerNode
	if t.MaxTP > 0 && t.MaxTP < maxTP {
		maxTP = t.MaxTP
	}
	var out []parallelism
	for tp := 1; tp <= devPerStage && tp <= maxTP; tp *= 2 {
		if devPerStage%tp != 0 || t.W.Model.Heads%tp != 0 {
			continue
		}
		dp := devPerStage / tp
		samplesPerSlot := t.W.GlobalBatch / g
		if t.W.GlobalBatch%g != 0 || samplesPerSlot%dp != 0 {
			continue
		}
		b := samplesPerSlot / dp
		if b < 1 {
			continue
		}
		out = append(out, parallelism{tp: tp, dp: dp, b: b})
	}
	return out
}

// paretoSample reduces a candidate set to K points on its (t, d) Pareto
// frontier using the paper's dual-objective sweep (Eq. 4): for uniformly
// sampled α in [0, 1], keep argmin α·G·t + (1−α)·d. With K == 1 the
// single sample uses α = 1 (pure stable-time minimization — the point a
// throughput-greedy planner would keep; α = 0/0 would be NaN).
// The returned slice is freshly allocated (it outlives the scratch); the
// scratch backs the frontier sort buffers.
func paretoSample(cands []candidate, g, k int, sc *sweepScratch) []candidate {
	if len(cands) == 0 {
		return nil
	}
	front := paretoFrontier(cands, sc)
	if len(front) <= k {
		return append([]candidate(nil), front...)
	}
	picked := map[int]bool{}
	var out []candidate
	for i := 0; i < k; i++ {
		alpha := 1.0
		if k > 1 {
			alpha = float64(i) / float64(k-1)
		}
		bestIdx, bestVal := -1, 0.0
		for j, c := range front {
			v := alpha*float64(g)*c.T + (1-alpha)*c.D
			if bestIdx < 0 || v < bestVal {
				bestIdx, bestVal = j, v
			}
		}
		if !picked[bestIdx] {
			picked[bestIdx] = true
			out = append(out, front[bestIdx])
		}
	}
	return out
}

// paretoKey is the sort key of one candidate: its (T, D) objectives and
// its enumeration index, which breaks exact ties deterministically.
type paretoKey struct {
	t, d float64
	idx  int
}

func comparePareto(a, b paretoKey) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	case a.d < b.d:
		return -1
	case a.d > b.d:
		return 1
	}
	return a.idx - b.idx
}

// paretoFrontier keeps the non-dominated candidates: c dominates c' when
// c.T <= c'.T and c.D <= c'.D with at least one strict. Of exact
// duplicates in (T, D) it keeps the lowest-index one. The frontier comes
// out in ascending T (and so descending D). It sorts small keys rather
// than the candidates themselves and copies out only the frontier. The
// returned slice is backed by sc and valid until its next use.
func paretoFrontier(cands []candidate, sc *sweepScratch) []candidate {
	keys := sc.keys[:0]
	for i := range cands {
		keys = append(keys, paretoKey{t: cands[i].T, d: cands[i].D, idx: i})
	}
	sc.keys = keys
	slices.SortFunc(keys, comparePareto)
	front := sc.front[:0]
	bestD := 0.0
	for _, k := range keys {
		if len(front) == 0 || k.d < bestD {
			front = append(front, cands[k.idx])
			bestD = k.d
		}
	}
	sc.front = front
	return front
}
