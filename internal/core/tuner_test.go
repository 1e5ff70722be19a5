package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/trainsim"
)

func testWorkload(name string, batch int) plan.Workload {
	return plan.Workload{Model: model.MustByName(name), Seq: 2048, Flash: true, GlobalBatch: batch}
}

func mustTune(t *testing.T, w plan.Workload, gpus int, space Space) *Result {
	t.Helper()
	nodes, perNode, err := hardware.MeshForGPUs(gpus)
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.L4Cluster(nodes, perNode)
	tn, err := New(w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Tune()
	if err != nil {
		t.Fatalf("tune (%s): %v", space.Name, err)
	}
	return res
}

func TestTuneSmallModel(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	res := mustTune(t, w, 2, MistSpace())
	if res.Plan == nil || res.Predicted <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	if err := res.Plan.Validate(w); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if res.Candidates == 0 || res.SGPairs == 0 {
		t.Error("tuning statistics not recorded")
	}
	// No memo layer answers pricings: every candidate of an error-free
	// search is one analyzer evaluation.
	if res.EvalCacheHits != 0 || res.EvalCacheMisses != uint64(res.Candidates) {
		t.Errorf("hits/misses %d/%d, want 0/%d (one evaluation per candidate)",
			res.EvalCacheHits, res.EvalCacheMisses, res.Candidates)
	}
}

func TestMistBeatsRestrictedSpaces(t *testing.T) {
	// The Mist space strictly contains each baseline space, so its
	// predicted objective can never be worse; with memory pressure it
	// should be strictly better than the 3D-only space.
	w := testWorkload("gpt3-2.7b", 8)
	mist := mustTune(t, w, 4, MistSpace())
	threeD := mustTune(t, w, 4, ThreeDSpace())
	deepspeed := mustTune(t, w, 4, DeepSpeedSpace())
	if mist.Predicted > threeD.Predicted+1e-9 {
		t.Errorf("mist %v worse than 3D %v", mist.Predicted, threeD.Predicted)
	}
	if mist.Predicted > deepspeed.Predicted+1e-9 {
		t.Errorf("mist %v worse than deepspeed %v", mist.Predicted, deepspeed.Predicted)
	}
	if mist.Predicted >= threeD.Predicted {
		t.Errorf("mist %v should strictly beat full-ckpt 3D %v under memory pressure", mist.Predicted, threeD.Predicted)
	}
}

func TestOOMWithoutMemoryOptimization(t *testing.T) {
	// GPT-3 7B on 4 L4 GPUs without any memory optimization and no
	// recomputation OOMs everywhere (the Figure 2(a) phenomenon): the
	// mixed-precision model states alone exceed 24 GB per GPU at any
	// DP/TP/PP split of four devices.
	w := testWorkload("gpt3-7b", 8)
	w.Seq = 4096
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)
	space := ThreeDSpace()
	space.Name = "no-ckpt"
	space.TuneCkpt = true
	space.CkptFractions = []float64{0} // forbid recomputation
	tn, err := New(w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Tune(); !errors.Is(err, ErrNoFeasiblePlan) {
		t.Fatalf("expected ErrNoFeasiblePlan, got %v", err)
	}
}

func TestSolversAgree(t *testing.T) {
	// The DP (default), the MILP (paper-faithful) and brute-force
	// enumeration must find the same optimal objective.
	w := testWorkload("gpt3-1.3b", 8)
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)
	for _, space := range []Space{DeepSpeedSpace(), AcesoSpace()} {
		tnD, err := New(w, cl, space)
		if err != nil {
			t.Fatal(err)
		}
		tnM := &Tuner{W: w, Cluster: cl, An: tnD.An, Space: space, UseMILP: true}
		tnE := &Tuner{W: w, Cluster: cl, An: tnD.An, Space: space, Exhaustive: true}
		rd, err := tnD.Tune()
		if err != nil {
			t.Fatal(err)
		}
		rm, err := tnM.Tune()
		if err != nil {
			t.Fatal(err)
		}
		re, err := tnE.Tune()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rd.Predicted-re.Predicted) > 1e-6*re.Predicted {
			t.Errorf("%s: DP objective %v != exhaustive %v", space.Name, rd.Predicted, re.Predicted)
		}
		if math.Abs(rm.Predicted-re.Predicted) > 1e-6*re.Predicted {
			t.Errorf("%s: MILP objective %v != exhaustive %v", space.Name, rm.Predicted, re.Predicted)
		}
	}
}

func TestTunedPlanExecutes(t *testing.T) {
	// The tuned plan must execute on the engine without OOM, and the
	// prediction must be in the right ballpark of the measurement.
	w := testWorkload("gpt3-2.7b", 16)
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)
	tn, err := New(w, cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	eng := trainsim.New(w, cl, tn.An)
	m, err := eng.Measure(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if m.OOM(cl.MemoryBudget()) {
		t.Errorf("tuned plan OOMs when executed: peaks %v, budget %v", m.PeakMem, cl.MemoryBudget())
	}
	rel := math.Abs(res.Predicted-m.IterTime) / m.IterTime
	if rel > 0.25 {
		t.Errorf("prediction %.3fs vs measured %.3fs: %.0f%% off", res.Predicted, m.IterTime, 100*rel)
	}
}

func TestUniformHeuristicNotBetter(t *testing.T) {
	w := testWorkload("gpt3-2.7b", 8)
	mist := mustTune(t, w, 4, MistSpace())
	uniform := mustTune(t, w, 4, UniformHeuristicSpace())
	if mist.Predicted > uniform.Predicted+1e-9 {
		t.Errorf("mist %v should be at least as good as the uniform heuristic %v", mist.Predicted, uniform.Predicted)
	}
}

func TestBreakdownLadderMonotone(t *testing.T) {
	// Each rung of the Figure 13 ladder adds options, so the predicted
	// objective must be non-increasing (evaluated under the same final
	// Eq. 1 metric via plan re-pricing).
	w := testWorkload("gpt3-2.7b", 8)
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)
	prev := math.Inf(1)
	prevName := ""
	for _, space := range BreakdownLadder() {
		tn, err := New(w, cl, space)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			t.Fatalf("%s: %v", space.Name, err)
		}
		// Re-price under the true Eq. 1 objective for a fair comparison.
		mistEval := &Tuner{W: w, Cluster: cl, An: tn.An, Space: MistSpace()}
		truth, err := mistEval.PredictPlan(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if truth > prev*1.02 { // small tolerance: averaged-objective rungs may mis-pick
			t.Errorf("ladder rung %s (%v) regressed vs %s (%v)", space.Name, truth, prevName, prev)
		}
		if truth < prev {
			prev, prevName = truth, space.Name
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	cands := []candidate{
		{T: 1, D: 5}, {T: 2, D: 2}, {T: 3, D: 1}, {T: 2.5, D: 3}, {T: 4, D: 4},
	}
	front := paretoFrontier(cands, &sweepScratch{})
	if len(front) != 3 {
		t.Fatalf("frontier size %d, want 3 (got %+v)", len(front), front)
	}
	for _, c := range front {
		if c.T == 2.5 || c.T == 4 {
			t.Errorf("dominated candidate %v on frontier", c)
		}
	}
}

func TestParetoSampleEndpoints(t *testing.T) {
	var cands []candidate
	for i := 0; i < 20; i++ {
		cands = append(cands, candidate{T: float64(i), D: float64(20 - i)})
	}
	out := paretoSample(cands, 4, 3, &sweepScratch{})
	if len(out) == 0 || len(out) > 3 {
		t.Fatalf("sample size %d", len(out))
	}
	// α=1 favors min t; α=0 favors min d: both extremes present.
	hasMinT, hasMinD := false, false
	for _, c := range out {
		if c.T == 0 {
			hasMinT = true
		}
		if c.D == 1 {
			hasMinD = true
		}
	}
	if !hasMinT || !hasMinD {
		t.Errorf("α sweep should include both frontier endpoints: %+v", out)
	}
}

// K == 1 historically divided by k-1, producing NaN scores; the sweep
// now pins α = 1 explicitly, so the single sample is the throughput
// endpoint (min stable time on the frontier).
func TestParetoSampleSingle(t *testing.T) {
	cands := []candidate{
		{T: 1, D: 5}, {T: 2, D: 2}, {T: 3, D: 1}, {T: 2.5, D: 3}, {T: 4, D: 4},
	}
	out := paretoSample(cands, 4, 1, &sweepScratch{})
	if len(out) != 1 {
		t.Fatalf("k=1 sampled %d candidates", len(out))
	}
	if out[0].T != 1 {
		t.Errorf("k=1 picked T=%v, want the min-T frontier point (T=1)", out[0].T)
	}
}

// K at or beyond the frontier size returns the whole frontier, no
// sweep needed.
func TestParetoSampleKExceedsFrontier(t *testing.T) {
	cands := []candidate{
		{T: 1, D: 5}, {T: 2, D: 2}, {T: 3, D: 1}, {T: 2.5, D: 3}, {T: 4, D: 4},
	}
	for _, k := range []int{3, 10} {
		out := paretoSample(cands, 4, k, &sweepScratch{})
		if len(out) != 3 {
			t.Errorf("k=%d sampled %d candidates, want the full 3-point frontier", k, len(out))
		}
	}
	if out := paretoSample(nil, 4, 1, &sweepScratch{}); out != nil {
		t.Errorf("empty candidate set sampled %+v", out)
	}
}

// flakyEvaluator delegates to the real analyzer but fails configurable
// subsets of the traffic, counting exactly the pricings that succeeded —
// the reference value for the tuner's `evaluated` accounting.
type flakyEvaluator struct {
	an           *schedule.Analyzer
	failBatchTP  int          // EvaluateBatch errors for shapes with this TP (0: never)
	failEvaluate bool         // every single-point Evaluate errors
	points       atomic.Int64 // successful batch pricings, in points
	attempts     atomic.Int64 // single-point Evaluate attempts
}

func (f *flakyEvaluator) Evaluate(s schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	f.attempts.Add(1)
	if f.failEvaluate {
		return schedule.Result{}, errors.New("flaky: evaluate failed")
	}
	return f.an.Evaluate(s, k)
}

func (f *flakyEvaluator) EvaluateBatch(s schedule.StageShape, ks []schedule.Knobs) ([]schedule.Result, error) {
	if f.failBatchTP != 0 && s.TP == f.failBatchTP {
		return nil, errors.New("flaky: batch failed")
	}
	rs, err := f.an.EvaluateBatch(s, ks)
	if err == nil {
		f.points.Add(int64(len(ks)))
	}
	return rs, err
}

// TestIntraStageExactCountOnError pins the accounting fix: when one
// shape's batch fails, intraStage still reports every pricing that other
// (possibly later-scheduled) shapes completed — not zero, not a partial
// early-return tally.
func TestIntraStageExactCountOnError(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	nodes, perNode, err := hardware.MeshForGPUs(2)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := New(w, hardware.L4Cluster(nodes, perNode), DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyEvaluator{an: tn.An, failBatchTP: 2}
	tn.evOverride = fl

	sc := &sweepScratch{}
	_, evaluated, err := tn.intraStage(1, 1, 0, 2, w.Model.Layers, sc)
	if err == nil {
		t.Fatal("TP=2 batches were supposed to fail")
	}
	if got, want := int64(evaluated), fl.points.Load(); got != want {
		t.Errorf("intraStage reported %d evaluations, backend completed %d", got, want)
	}
	if fl.points.Load() == 0 {
		t.Fatal("no TP=1 shape priced; the test exercised nothing")
	}
}

// TestTuneUniformCountsFailedEvaluations pins the companion fix in the
// uniform-heuristic baseline: a single-point Evaluate that errors is
// still an attempt the evaluator made, so it must be counted.
func TestTuneUniformCountsFailedEvaluations(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	nodes, perNode, err := hardware.MeshForGPUs(2)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := New(w, hardware.L4Cluster(nodes, perNode), UniformHeuristicSpace())
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyEvaluator{an: tn.An, failEvaluate: true}
	tn.evOverride = fl

	_, evaluated, err := tn.tuneUniform(2, 1, 1)
	if err == nil {
		t.Fatal("all-failing Evaluate was supposed to leave the heuristic infeasible")
	}
	if fl.attempts.Load() == 0 {
		t.Fatal("no single-point evaluations attempted; the test exercised nothing")
	}
	want := fl.points.Load() + fl.attempts.Load()
	if int64(evaluated) != want {
		t.Errorf("tuneUniform reported %d evaluations, want %d (%d batch points + %d failed attempts)",
			evaluated, want, fl.points.Load(), fl.attempts.Load())
	}
}

func TestLayerRange(t *testing.T) {
	w := testWorkload("gpt3-2.7b", 8) // 32 layers
	tn := &Tuner{W: w}
	if r := tn.layerRange(1, 0); len(r) != 1 || r[0] != 32 {
		t.Errorf("S=1 range %v", r)
	}
	r := tn.layerRange(4, 1)
	for _, l := range r {
		if l < 1 || l > 29 {
			t.Errorf("layer count %d out of bounds", l)
		}
	}
	// Balanced share 8 must be present.
	found := false
	for _, l := range r {
		if l == 8 {
			found = true
		}
	}
	if !found {
		t.Errorf("balanced share missing from %v", r)
	}
}

func TestGradAccumsAreDivisors(t *testing.T) {
	tn := &Tuner{W: testWorkload("gpt3-1.3b", 12)}
	for _, g := range tn.gradAccums() {
		if 12%g != 0 {
			t.Errorf("G=%d does not divide 12", g)
		}
	}
}
