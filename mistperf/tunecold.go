package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	mist "repro"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/trace"
)

const goldenPath = "testdata/golden_plans.json"

// loadGolden reads the pinned plans, compacted per case, so a tuned
// plan can be compared byte for byte with its encoding.
func loadGolden() (map[string][]byte, error) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	out := map[string][]byte{}
	for k, v := range raw {
		var b bytes.Buffer
		if err := json.Compact(&b, v); err != nil {
			return nil, err
		}
		out[k] = b.Bytes()
	}
	return out, nil
}

// goldenEncoding is the encoding golden_plans.json records per case.
func goldenEncoding(res *core.Result) []byte {
	buf, err := json.Marshal(struct {
		Plan      *plan.Plan
		Predicted float64
	}{res.Plan, res.Predicted})
	if err != nil {
		return nil
	}
	return buf
}

// coldOp is one measured tune-cold search.
type coldOp struct {
	spec    int
	lat     time.Duration
	allocMB float64
	res     *core.Result
}

// coldRun holds a tune-cold run's measurements and checks.
type coldRun struct {
	specs  []spec
	golden map[string][]byte
	plans  map[int][]byte // first pass's plan encoding per spec
	sims   map[int]mist.Measurement
	ops    []coldOp
	failed int
	bad    []string // failed correctness checks
}

// search runs one timed search: through the mist facade, or (traced)
// through core.New + TuneContext under a root span of rec, which is
// what mist.Tune does without a context.
func (cr *coldRun) search(i int, rec *trace.Recorder) {
	s := cr.specs[i]
	w, cl, err := resolve(s.WorkloadSpec)
	if err != nil {
		cr.failed++
		cr.bad = append(cr.bad, s.label()+": "+err.Error())
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var res *core.Result
	if rec == nil {
		res, err = mist.Tune(w, cl)
	} else {
		ctx, root := rec.StartTrace(context.Background(), "tune "+s.label(), "")
		var tn *core.Tuner
		if tn, err = core.New(w, cl, core.MistSpace()); err == nil {
			res, err = tn.TuneContext(ctx)
		}
		root.End()
	}
	lat := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		cr.failed++
		cr.bad = append(cr.bad, s.label()+": "+err.Error())
		return
	}
	cr.ops = append(cr.ops, coldOp{spec: i, lat: lat, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, res: res})
	cr.check(i, w, res)
}

// check runs the plan gates outside the timed span: validity, memory
// fit on the execution engine, the golden encoding, and identity with
// the first pass.
func (cr *coldRun) check(i int, w plan.Workload, res *core.Result) {
	s := cr.specs[i]
	if err := res.Plan.Validate(w); err != nil {
		cr.bad = append(cr.bad, s.label()+": invalid plan: "+err.Error())
	}
	enc := goldenEncoding(res)
	if s.Golden != "" && !bytes.Equal(enc, cr.golden[s.Golden]) {
		cr.bad = append(cr.bad, s.Golden+": plan differs from "+goldenPath)
	}
	first, seen := cr.plans[i]
	if !seen {
		cr.plans[i] = enc
		_, cl, _ := resolve(s.WorkloadSpec)
		m, err := mist.Simulate(w, cl, res.Plan)
		if err != nil {
			cr.bad = append(cr.bad, s.label()+": simulate: "+err.Error())
			return
		}
		if m.OOM(cl.MemoryBudget()) {
			cr.bad = append(cr.bad, fmt.Sprintf("%s: simulated peak memory exceeds the %.0f-byte budget", s.label(), cl.MemoryBudget()))
		}
		cr.sims[i] = m
	} else if !bytes.Equal(first, enc) {
		cr.bad = append(cr.bad, s.label()+": plan differs between passes")
	}
}

// passes runs whole passes over the list until budget has elapsed (at
// least minPasses), returning the ops it measured.
func (cr *coldRun) passes(budget time.Duration, minPasses int, rec *trace.Recorder) []coldOp {
	from := len(cr.ops)
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < budget; pass++ {
		for i := range cr.specs {
			cr.search(i, rec)
		}
	}
	return cr.ops[from:]
}

func runTuneCold(cfg runConfig, r *result) error {
	const setups = 7
	var setupS []float64
	cr := &coldRun{plans: map[int][]byte{}, sims: map[int]mist.Measurement{}}
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		g, err := loadGolden()
		if err != nil {
			return err
		}
		cr.golden, cr.specs = g, coldSpecs(cfg.Seed)
		w, cl, err := resolve(coldWarmup.WorkloadSpec)
		if err != nil {
			return err
		}
		if _, err := mist.Tune(w, cl); err != nil {
			return fmt.Errorf("warm-up search: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setupS), "s", setups)
	r.Notes["specs"] = cr.specs

	budget := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		budget /= 2
	}
	// Two passes at least, so the pass-to-pass identity check always
	// has something to compare; the traced run's second pass is traced.
	var untraced, traced []coldOp
	rec := trace.NewRecorder(trace.Options{Node: "tune-cold", SampleEvery: 1})
	if cfg.Trace {
		untraced = cr.passes(budget, 1, nil)
		traced = cr.passes(budget, 1, rec)
	} else {
		untraced = cr.passes(budget, 2, nil)
	}
	r.Attempted = len(cr.ops) + cr.failed
	r.Failed = cr.failed

	// End-to-end figures come from the untraced passes.
	var lats, allocs, cands, pairs, pruned, aborted, unique []float64
	var hits, evals, candSum uint64
	var searchS float64
	for _, op := range untraced {
		lats = append(lats, ms(op.lat))
		allocs = append(allocs, op.allocMB)
		res := op.res
		cands = append(cands, float64(res.Candidates))
		pairs = append(pairs, float64(res.SGPairs))
		pruned = append(pruned, float64(res.WarmPruned))
		aborted = append(aborted, float64(res.WarmAbortedPairs))
		unique = append(unique, float64(res.EvalCacheMisses))
		hits += res.EvalCacheHits
		evals += res.EvalCacheHits + res.EvalCacheMisses
		candSum += uint64(res.Candidates)
		searchS += op.lat.Seconds()
	}
	n := len(lats)
	if n == 0 {
		return fmt.Errorf("no search succeeded: %v", cr.bad)
	}
	p50, p99 := quantile(lats, 0.5), quantile(lats, 0.99)
	r.set("ops_per_s", float64(n)/searchS, "1/s", n)
	r.set("latency_ms_p50", p50, "ms", n)
	r.set("latency_ms_p99", p99, "ms", n)
	r.set("miss_latency_ms_p50", p50, "ms", n)
	r.set("hit_latency_ms_p99", p99, "ms", n)
	r.Notes["hit_latency_ms_p99"] = "tune-cold has no cache hits: every op is a fresh search, so this mirrors latency_ms_p99"
	r.Notes["passes"] = float64(n) / float64(len(cr.specs))
	perSpec := map[string][]float64{}
	for _, op := range untraced {
		perSpec[cr.specs[op.spec].label()] = append(perSpec[cr.specs[op.spec].label()], ms(op.lat))
	}
	r.Notes["search_ms_by_spec"] = perSpec

	var tputs, errs []float64
	errBySpec := map[string]float64{}
	for i := range cr.specs {
		m, ok := cr.sims[i]
		if !ok {
			continue
		}
		var pred float64
		for _, op := range cr.ops {
			if op.spec == i {
				pred = op.res.Predicted
				break
			}
		}
		tputs = append(tputs, m.Throughput)
		errs = append(errs, 100*math.Abs(pred-m.IterTime)/m.IterTime)
		errBySpec[cr.specs[i].label()] = errs[len(errs)-1]
	}
	r.Notes["pred_err_pct_by_spec"] = errBySpec
	r.set("plan_throughput_sps", geomean(tputs), "samples/s", len(tputs))
	r.set("pred_err_pct", mean(errs), "%", len(errs))

	r.gate("returned plans validate and fit the memory budget; golden cases match byte for byte; passes agree",
		len(cr.bad) == 0, "%v", cr.bad)
	r.gate("tune-cold ran at least two passes", len(cr.ops) >= 2*len(cr.specs), "%d searches over %d specs", len(cr.ops), len(cr.specs))

	// Per-layer figures.
	r.set("core.candidates", median(cands), "count", n)
	r.set("core.candidates_per_s", float64(candSum)/searchS, "1/s", n)
	r.set("core.sg_pairs", median(pairs), "count", n)
	r.set("core.pruned", median(pruned), "count", n)
	r.set("core.aborted_pairs", median(aborted), "count", n)
	r.set("evalcache.unique_evals", median(unique), "count", n)
	r.set("evalcache.hit_ratio", float64(hits)/float64(max(evals, 1)), "ratio", int(evals))
	r.set("evalcache.hit_ratio_base", float64(evals)/float64(n), "count", n)
	r.set("runtime.alloc_mb_per_search", median(allocs), "MB", n)
	r.set("load.failed_ratio", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	r.set("load.inflight_max", 1, "count", n)
	for _, m := range []string{"serve.plan_cache_hit_ratio", "serve.store_hit_ratio", "serve.rejected_ratio",
		"cluster.forward_ratio", "serve.warm_start_ratio"} {
		r.absent(m, "ratio", "tune-cold calls the library directly: no service, store or cluster on the path")
	}
	r.absent("serve.searches_per_new_key", "count", "tune-cold calls the library directly: no service on the path")
	for _, m := range []string{"serve.metrics_scrape_ms", "serve.admission_ms", "serve.store_check_ms", "serve.prepare_ms",
		"cluster.forward_ms", "cluster.replication_ms"} {
		r.absent(m, "ms", "tune-cold calls the library directly: no service, store or cluster on the path")
	}

	if cfg.Trace {
		ts := newTraceSet()
		ts.add(rec.Traces(trace.Filter{}))
		const why = "no traced search completed"
		setSpanMetric(r, "core.intra_sweep_ms", ts.selfPerTrace("intra-sweep", "sweep"), why)
		setSpanMetric(r, "core.inter_stage_ms", ts.selfPerTrace("inter-stage", "sweep"), why)
		setSpanMetric(r, "core.warm_adapt_ms", ts.selfPerTrace("warm-adapt", "sweep"), why)
		r.set("trace.dropped", float64(rec.Stats().TracesDropped), "count", ts.traces())
		r.set("trace.overhead_pct", coldOverhead(untraced, traced), "%", len(traced))
		if err := layerTimings(r, coldPlans(cr), nil); err != nil {
			return err
		}
	}
	runtime.GC()
	r.set("live_heap_mb", liveHeapMB(), "MB", 1)
	return nil
}

// coldOverhead compares each spec's median search time traced versus
// untraced, summed over the specs both phases measured.
func coldOverhead(untraced, traced []coldOp) float64 {
	by := func(ops []coldOp) map[int][]float64 {
		m := map[int][]float64{}
		for _, op := range ops {
			m[op.spec] = append(m[op.spec], ms(op.lat))
		}
		return m
	}
	u, t := by(untraced), by(traced)
	var su, st float64
	for i, xs := range t {
		if ys, ok := u[i]; ok {
			st += median(xs)
			su += median(ys)
		}
	}
	if su == 0 {
		return 0
	}
	return 100 * (st/su - 1)
}

// coldPlans pairs each spec with its tuned plan for the layer timings.
func coldPlans(cr *coldRun) []tunedPlan {
	var out []tunedPlan
	seen := map[int]bool{}
	for _, op := range cr.ops {
		if !seen[op.spec] {
			seen[op.spec] = true
			out = append(out, tunedPlan{spec: cr.specs[op.spec], plan: op.res.Plan, predicted: op.res.Predicted})
		}
	}
	return out
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
