package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/opdb"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/trace"
)

// Tuner is Mist's automatic distributed-training optimizer for one
// workload on one cluster, restricted to a Space.
type Tuner struct {
	W       plan.Workload
	Cluster *hardware.Cluster
	An      *schedule.Analyzer
	Space   Space

	// MaxTP optionally caps the tensor-parallel degree below the node
	// size.
	MaxTP int

	// LayerWindow is the half-width of the per-stage layer-count range
	// explored around ceil(L/S); 0 means the default of 2.
	LayerWindow int

	// UseMILP selects the paper-faithful MILP inter-stage solver instead
	// of the default exact DP (solveInterDP); the two return the same
	// optimum (cross-checked in tests), the DP is much faster on deep
	// pipelines.
	UseMILP bool

	// Exhaustive switches the inter-stage solver to branch-and-bound
	// enumeration (used for cross-checks).
	Exhaustive bool

	// Warm optionally seeds the search with a neighbor plan (see
	// warm.go): the seed is priced into an incumbent bound that prunes
	// provably dominated regions, its candidates are injected into the
	// matching (S, G) pair, and it is the fallback answer — so a warm
	// start can only match or improve on the cold search's plan. The
	// seed should come from the same search space (the plan store
	// enforces this); a seed using knobs outside Space can surface them
	// in the result. Invalid or unadaptable seeds are ignored.
	Warm *plan.Plan

	// evOverride, when set, replaces the analyzer as the pricing
	// backend (tests use it to inject evaluator failures and count
	// attempts).
	evOverride pricer

	// evals counts successful analyzer pricings (points, not calls);
	// TuneContext reports its per-search delta as EvalCacheMisses.
	evals atomic.Uint64

	// knobSets memoizes the knob batch per layer count: the batch
	// depends only on (Space, layers), so it is built once and shared by
	// every (S, G) worker and every search on this tuner.
	knobMu   sync.Mutex
	knobSets map[int][]schedule.Knobs

	// Per-Tune search state: the priced warm seed, the global incumbent
	// bound (float64 bits; +Inf when no solution is known yet), and
	// telemetry counters shared by the concurrent (S, G) workers.
	// incumbent is seeded from the warm objective and lowered by every
	// completed pair, so later pairs prune against the best solution
	// found so far — on cold searches too. All non-atomic fields are
	// written only before the workers spawn.
	warmSeed    *warmSeed
	incumbent   atomic.Uint64
	warmPruned  atomic.Int64
	warmAborted atomic.Int64

	// disableIncumbent stops completed pairs from feeding the incumbent
	// bound (the warm seed still does). Tests use it to get
	// run-to-run-deterministic candidate counts for a reference search;
	// the chosen plan is identical either way.
	disableIncumbent bool

	// tuneCtx bounds the running search; canceling it makes
	// TuneContext return the context's error.
	tuneCtx context.Context
}

// pricer is the pricing interface a test can substitute for the
// analyzer; *schedule.Analyzer satisfies it.
type pricer interface {
	Evaluate(schedule.StageShape, schedule.Knobs) (schedule.Result, error)
	EvaluateBatch(schedule.StageShape, []schedule.Knobs) ([]schedule.Result, error)
}

// evaluate prices one point through the analyzer (or the test
// override), counting it into evals when it succeeds.
func (t *Tuner) evaluate(shape schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	var ev pricer = t.An
	if t.evOverride != nil {
		ev = t.evOverride
	}
	r, err := ev.Evaluate(shape, k)
	if err == nil {
		t.evals.Add(1)
	}
	return r, err
}

// knobSet returns the knob batch for one layer count, building it on
// first use: the checkpoint grid is quantized to the layer count and
// crossed with the space's offload-ratio grids (identical to the
// enumeration the intra-stage sweep always used, hoisted out of the
// per-(stage, layer) hot path). Callers must not mutate it.
func (t *Tuner) knobSet(layers int) []schedule.Knobs {
	t.knobMu.Lock()
	defer t.knobMu.Unlock()
	if ks, ok := t.knobSets[layers]; ok {
		return ks
	}
	grid := t.Space.offloadGrid()
	zeroOnly := []float64{0}
	woGrid, goGrid, ooGrid, aoGrid := zeroOnly, zeroOnly, zeroOnly, zeroOnly
	if t.Space.TuneWO {
		woGrid = grid
	}
	if t.Space.TuneGO {
		goGrid = grid
	}
	if t.Space.TuneOO {
		ooGrid = grid
	}
	if t.Space.TuneAO {
		aoGrid = grid
	}

	// Checkpoint grid for this layer count.
	ckptSet := map[int]bool{}
	var ckpts []int
	for _, f := range t.Space.ckptFractions() {
		c := int(f*float64(layers) + 0.5)
		if c < 0 {
			c = 0
		}
		if c > layers {
			c = layers
		}
		if !ckptSet[c] {
			ckptSet[c] = true
			ckpts = append(ckpts, c)
		}
	}
	sort.Ints(ckpts)

	var knobs []schedule.Knobs
	for _, ck := range ckpts {
		for _, wo := range woGrid {
			for _, gov := range goGrid {
				for _, oo := range ooGrid {
					for _, ao := range aoGrid {
						knobs = append(knobs, schedule.Knobs{
							Layers: layers, Ckpt: ck, WO: wo, GO: gov, OO: oo, AO: ao,
						})
					}
				}
			}
		}
	}
	if t.knobSets == nil {
		t.knobSets = map[int][]schedule.Knobs{}
	}
	t.knobSets[layers] = knobs
	return knobs
}

// bound returns the current incumbent objective: the best complete
// solution known so far (+Inf before any), the pruning threshold for
// pruneByBound and pairBound.
func (t *Tuner) bound() float64 {
	return math.Float64frombits(t.incumbent.Load())
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
		if math.Float64frombits(cur) <= obj {
			return
		}
		if t.incumbent.CompareAndSwap(cur, math.Float64bits(obj)) {
			return
		}
	}
}

// ctxErr reports the running search's context error (nil outside a
// TuneContext call).
func (t *Tuner) ctxErr() error {
	if t.tuneCtx == nil {
		return nil
	}
	return t.tuneCtx.Err()
}

// Result reports the tuned plan and tuning statistics.
type Result struct {
	Plan           *plan.Plan
	Predicted      float64 // objective value (predicted iteration seconds)
	PredThroughput float64 // samples/sec under the prediction
	Candidates     int     // intra-stage configurations priced
	SGPairs        int     // (pipeline depth, grad accum) pairs explored
	Elapsed        time.Duration

	// Pricing traffic during this search, kept under the names of the
	// evaluation cache that once fronted the analyzer: there is no memo
	// layer, so EvalCacheHits is always 0 and EvalCacheMisses counts the
	// successful analyzer evaluations. On an error-free search
	// Hits + Misses == Candidates exactly. Evaluator errors leave the
	// failed attempt in Candidates but not in Misses, so
	// Candidates >= Hits + Misses always.
	EvalCacheHits   uint64
	EvalCacheMisses uint64

	// Incumbent-pruning telemetry: whether a seed plan survived
	// validation and pricing, its objective (the initial incumbent
	// bound), how many priced candidates the bound pruned before
	// inter-stage selection, and how many (S, G) pairs were abandoned
	// mid-sweep — the latter is where analyzer evaluations are saved.
	// The incumbent is also fed by every completed pair, so the pruning
	// counters can be nonzero on cold searches; their exact values are
	// scheduling-dependent (the chosen plan never is).
	WarmStarted       bool
	WarmSeedObjective float64
	WarmPruned        int
	WarmAbortedPairs  int
}

// CacheHitRate returns EvalCacheHits / (EvalCacheHits + EvalCacheMisses),
// which is 0 for every search now that no memo layer answers pricings.
func (r *Result) CacheHitRate() float64 {
	if t := r.EvalCacheHits + r.EvalCacheMisses; t > 0 {
		return float64(r.EvalCacheHits) / float64(t)
	}
	return 0
}

// CalibratedAnalyzer builds the analyzer New would use: operator
// database from the GPU model, interference factors fitted to the
// platform's contention simulator with a fixed seed, Serialize matching
// the space. Factored out so the serving layer can calibrate once per
// workload fingerprint and share the analyzer across requests via
// NewShared.
func CalibratedAnalyzer(w plan.Workload, cl *hardware.Cluster, space Space) (*schedule.Analyzer, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	fluid := interference.PCIeFluid()
	if cl.HasNVLink() {
		fluid = interference.NVLinkFluid()
	}
	intf := interference.Fit(fluid, 12, rand.New(rand.NewSource(42)))
	an := schedule.NewAnalyzer(w.Model, w.Seq, w.Flash, cl, opdb.New(cl.GPU), intf)
	an.Serialize = !space.OverlapAware
	return an, nil
}

// New builds a tuner with a freshly calibrated analyzer for the cluster
// (operator database from the GPU model; interference factors fitted to
// the platform's contention simulator with a fixed seed).
func New(w plan.Workload, cl *hardware.Cluster, space Space) (*Tuner, error) {
	an, err := CalibratedAnalyzer(w, cl, space)
	if err != nil {
		return nil, err
	}
	return &Tuner{W: w, Cluster: cl, An: an, Space: space}, nil
}

// NewShared builds a tuner over a shared calibrated analyzer (typically
// owned by the serving layer's per-fingerprint registry, so requests
// skip the interference fit and reuse its compiled programs). Unlike
// NewWithAnalyzer it never mutates the analyzer — it may be serving
// concurrent searches — and instead rejects a Serialize flag that
// contradicts the space.
func NewShared(w plan.Workload, cl *hardware.Cluster, an *schedule.Analyzer, space Space) (*Tuner, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if an.Serialize != !space.OverlapAware {
		return nil, fmt.Errorf("core: shared analyzer Serialize=%v contradicts space %q (overlap-aware=%v)",
			an.Serialize, space.Name, space.OverlapAware)
	}
	return &Tuner{W: w, Cluster: cl, An: an, Space: space}, nil
}

// NewWithAnalyzer builds a tuner reusing an existing analyzer (the
// analyzer's Serialize flag is overridden to match the space).
func NewWithAnalyzer(w plan.Workload, cl *hardware.Cluster, an *schedule.Analyzer, space Space) *Tuner {
	an.Serialize = !space.OverlapAware
	return &Tuner{W: w, Cluster: cl, An: an, Space: space}
}

// ErrNoFeasiblePlan is returned when every configuration in the space
// exceeds the memory budget (the paper's OOM outcome, e.g. Figure 2(a)).
var ErrNoFeasiblePlan = errors.New("core: no feasible plan in search space (OOM everywhere)")

// Tune searches the configured space and returns the best plan found.
// The (pipeline depth, gradient accumulation) pairs are independent and
// tuned concurrently (§6.5: "searching over different gradient
// accumulation steps is independent ... can be parallelized").
func (t *Tuner) Tune() (*Result, error) {
	return t.TuneContext(context.Background())
}

// TuneContext is Tune under a context: cancellation aborts the search
// between pipeline stages and (S, G) pairs and returns the context's
// error. Used by the async job queue for per-job cancellation.
func (t *Tuner) TuneContext(ctx context.Context) (*Result, error) {
	start := time.Now()
	res := &Result{}
	evalsBefore := t.evals.Load()

	// Warm-start setup (see warm.go): price the seed, arm the incumbent
	// bound, reset telemetry. All writes happen before workers spawn.
	t.tuneCtx = ctx
	t.warmSeed = nil
	t.incumbent.Store(math.Float64bits(math.Inf(1)))
	t.warmPruned.Store(0)
	t.warmAborted.Store(0)
	_, wsp := trace.StartSpan(ctx, "warm-adapt")
	seed, nWarm := t.prepareWarm()
	wsp.Annotate("warmStarted", seed != nil)
	wsp.End()
	res.Candidates += nWarm // seed pricing is real evaluator traffic
	if seed != nil {
		t.warmSeed = seed
		t.offerIncumbent(seed.objective)
		res.WarmStarted = true
		res.WarmSeedObjective = seed.objective
	}

	type sg struct{ s, g, devPer int }
	var pairs []sg
	for _, s := range t.stageCounts() {
		devPer := t.Cluster.TotalGPUs() / s
		for _, g := range t.gradAccums() {
			pairs = append(pairs, sg{s: s, g: g, devPer: devPer})
		}
	}
	// Best-first dispatch: the seed's own pair goes first so the solver
	// can tighten the incumbent past U immediately (on cold searches the
	// existing shallow-pipelines-first order already lands a cheap
	// incumbent early).
	if seed != nil {
		for i, p := range pairs {
			if p.s == len(seed.stages) && p.g == seed.g {
				pairs[0], pairs[i] = pairs[i], pairs[0]
				break
			}
		}
	}
	res.SGPairs = len(pairs)

	type outcome struct {
		sol   *interSolution
		s, g  int
		nEval int
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers < 1 {
		workers = 1
	}
	// The sweep span covers the whole concurrent (S, G) fan-out; each
	// pair gets its own child span (with intra-sweep / inter-stage
	// children inside tuneSG). Pair spans of concurrent workers overlap
	// by construction, so latency attribution reads the sweep span's
	// duration and treats children as a utilization breakdown.
	swctx, swsp := trace.StartSpan(ctx, "sweep")
	jobs := make(chan sg)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				if ctx.Err() != nil {
					results <- outcome{s: p.s, g: p.g}
					continue
				}
				pctx, psp := trace.StartSpan(swctx, "sg")
				psp.Annotate("s", p.s)
				psp.Annotate("g", p.g)
				sol, nEval, err := t.tuneSG(pctx, p.s, p.g, p.devPer)
				if err != nil {
					sol = nil // infeasible (S, G): OOM or no factorization
					psp.Annotate("infeasible", true)
				}
				if sol != nil && !t.disableIncumbent {
					// Publish the pair's optimum immediately so pairs still
					// in flight prune against the best solution so far.
					t.offerIncumbent(sol.Objective)
				}
				psp.Annotate("evals", nEval)
				psp.End()
				results <- outcome{sol: sol, s: p.s, g: p.g, nEval: nEval}
			}
		}()
	}
	go func() {
		for _, p := range pairs {
			jobs <- p
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	type found struct {
		sol  *interSolution
		s, g int
	}
	var best *found
	for o := range results {
		res.Candidates += o.nEval
		if o.sol == nil {
			continue
		}
		if best == nil || o.sol.Objective < best.sol.Objective ||
			(o.sol.Objective == best.sol.Objective && (o.s < best.s || (o.s == best.s && o.g < best.g))) {
			best = &found{sol: o.sol, s: o.s, g: o.g}
		}
	}
	res.WarmPruned = int(t.warmPruned.Load())
	res.WarmAbortedPairs = int(t.warmAborted.Load())
	res.EvalCacheMisses = t.evals.Load() - evalsBefore
	swsp.Annotate("pairs", res.SGPairs)
	swsp.Annotate("candidates", res.Candidates)
	swsp.Annotate("evalCacheHits", res.EvalCacheHits)
	swsp.Annotate("evalCacheMisses", res.EvalCacheMisses)
	swsp.Annotate("warmPruned", res.WarmPruned)
	swsp.Annotate("warmAbortedPairs", res.WarmAbortedPairs)
	swsp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	if seed != nil && (best == nil || best.sol.Objective > seed.objective) {
		// The (pruned) search failed to beat the seed: the seed itself is
		// the answer, so a warm start never regresses below its neighbor.
		best = &found{
			sol: &interSolution{Stages: seed.stages, Objective: seed.objective},
			s:   len(seed.stages), g: seed.g,
		}
	}
	if best == nil {
		return nil, ErrNoFeasiblePlan
	}
	p := &plan.Plan{GradAccum: best.g}
	for _, c := range best.sol.Stages {
		p.Stages = append(p.Stages, plan.Stage{Shape: c.Shape, Knobs: c.Knobs})
	}
	if err := p.Validate(t.W); err != nil {
		return nil, fmt.Errorf("core: tuned plan invalid: %w", err)
	}
	res.Plan = p
	res.Predicted = best.sol.Objective
	res.PredThroughput = float64(t.W.GlobalBatch) / best.sol.Objective
	return res, nil
}

// tuneSG runs intra-stage tuning + inter-stage selection for one
// (pipeline depth, gradient accumulation) pair. ctx carries the pair's
// trace span (when tracing is on); cancellation still flows through
// t.tuneCtx as before.
func (t *Tuner) tuneSG(ctx context.Context, s, g, devPer int) (*interSolution, int, error) {
	if t.Space.UniformStages {
		return t.tuneUniform(s, g, devPer)
	}
	if t.Space.HeterogeneousDevices && s > 1 {
		return t.tuneSGHetero(ctx, s, g)
	}
	evaluated := 0
	cands := make([][]candidate, s)
	sc := sweepScratchPool.Get().(*sweepScratch)
	defer sweepScratchPool.Put(sc)
	_, isp := trace.StartSpan(ctx, "intra-sweep")
	err := func() error {
		var pb pairBound
		for i := 0; i < s; i++ {
			if err := t.ctxErr(); err != nil {
				return err
			}
			var stageC []candidate
			for _, l := range t.layerRange(s, i) {
				cs, n, err := t.intraStage(s, g, i, devPer, l, sc)
				evaluated += n
				if err != nil {
					return err
				}
				stageC = append(stageC, paretoSample(cs, g, t.Space.paretoSamples(), sc)...)
			}
			stageC = t.injectSeed(stageC, s, g, i)
			if len(stageC) == 0 {
				return fmt.Errorf("core: stage %d infeasible for S=%d G=%d", i, s, g)
			}
			stageC = t.pruneByBound(stageC, g)
			if len(stageC) == 0 || pb.add(stageC, g, t.bound()) {
				// Every surviving combination of this pair is provably no
				// better than the warm seed: stop before pricing the
				// remaining stages.
				t.warmAborted.Add(1)
				return &warmPrunedError{s: s, g: g}
			}
			cands[i] = stageC
		}
		return nil
	}()
	isp.Annotate("evals", evaluated)
	isp.End()
	if err != nil {
		return nil, evaluated, err
	}
	_, nsp := trace.StartSpan(ctx, "inter-stage")
	var sol *interSolution
	switch {
	case t.Exhaustive:
		sol, err = t.solveInterExhaustive(cands, t.W.Model.Layers, g)
	case t.UseMILP:
		sol, err = t.solveInterMILP(cands, t.W.Model.Layers, g)
	default:
		sol, err = t.solveInterDP(cands, t.W.Model.Layers, g)
	}
	nsp.End()
	if err != nil {
		return nil, evaluated, err
	}
	return sol, evaluated, nil
}

// tuneSGHetero builds per-stage candidates over multiple device counts
// and lets the device-aware DP partition both layers and devices (the
// per-stage (n_i, m_i) assignment of Table 2).
func (t *Tuner) tuneSGHetero(ctx context.Context, s, g int) (*interSolution, int, error) {
	total := t.Cluster.TotalGPUs()
	evaluated := 0
	devOpts := t.deviceOptions(s)
	cands := make([][]candidate, s)
	sc := sweepScratchPool.Get().(*sweepScratch)
	defer sweepScratchPool.Put(sc)
	_, isp := trace.StartSpan(ctx, "intra-sweep")
	err := func() error {
		var pb pairBound
		for i := 0; i < s; i++ {
			if err := t.ctxErr(); err != nil {
				return err
			}
			var stageC []candidate
			for _, dev := range devOpts {
				// Group the Pareto sampling per (device count, layer count)
				// so the solver keeps trade-off points for every partition.
				for _, l := range t.layerRange(s, i) {
					cs, n, err := t.intraStage(s, g, i, dev, l, sc)
					evaluated += n
					if err != nil {
						return err
					}
					stageC = append(stageC, paretoSample(cs, g, t.Space.paretoSamples(), sc)...)
				}
			}
			stageC = t.injectSeed(stageC, s, g, i)
			if len(stageC) == 0 {
				return fmt.Errorf("core: stage %d infeasible for S=%d G=%d (hetero)", i, s, g)
			}
			stageC = t.pruneByBound(stageC, g)
			if len(stageC) == 0 || pb.add(stageC, g, t.bound()) {
				t.warmAborted.Add(1)
				return &warmPrunedError{s: s, g: g}
			}
			cands[i] = stageC
		}
		return nil
	}()
	isp.Annotate("evals", evaluated)
	isp.End()
	if err != nil {
		return nil, evaluated, err
	}
	_, nsp := trace.StartSpan(ctx, "inter-stage")
	sol, err := t.solveInterDPDevices(cands, t.W.Model.Layers, total, g)
	nsp.End()
	if err != nil {
		return nil, evaluated, err
	}
	return sol, evaluated, nil
}

// deviceOptions enumerates the per-stage device counts explored under
// heterogeneous assignment: powers of two (the practical mesh shapes)
// that leave at least one device for every other stage.
func (t *Tuner) deviceOptions(s int) []int {
	total := t.Cluster.TotalGPUs()
	var out []int
	for d := 1; d <= total-(s-1); d *= 2 {
		out = append(out, d)
	}
	return out
}

// tuneUniform implements the uniform-heuristic baseline (§3.3): one knob
// set shared by every stage, uniform layer split.
func (t *Tuner) tuneUniform(s, g, devPer int) (*interSolution, int, error) {
	if t.W.Model.Layers%s != 0 {
		return nil, 0, fmt.Errorf("core: uniform heuristic needs S | L")
	}
	l := t.W.Model.Layers / s
	evaluated := 0
	var best *interSolution
	// Enumerate shared configurations via stage 0's candidate list, then
	// replicate the knobs (and parallelism) across stages. The scratch
	// stays checked out until the loop is done with cands0 (the arena
	// backs it).
	sc := sweepScratchPool.Get().(*sweepScratch)
	defer sweepScratchPool.Put(sc)
	cands0, n, err := t.intraStage(s, g, 0, devPer, l, sc)
	evaluated += n
	if err != nil {
		return nil, evaluated, err
	}
	budget := t.Cluster.MemoryBudget() * planSafetyFraction
	for _, c0 := range cands0 {
		if err := t.ctxErr(); err != nil {
			return nil, evaluated, err
		}
		sel := make([]candidate, 0, s)
		feasible := true
		for i := 0; i < s; i++ {
			shape := c0.Shape
			shape.HasPre = i == 0
			shape.HasPost = i == s-1
			shape.StageIdx = i
			r, err := t.evaluate(shape, c0.Knobs)
			evaluated++ // the attempt was made whether or not it priced
			if err != nil {
				feasible = false
				break
			}
			if !r.Fits(budget) {
				feasible = false
				break
			}
			sel = append(sel, candidate{Shape: shape, Knobs: c0.Knobs, T: r.Stable, D: r.Delta, Mem: r.PeakMem})
		}
		if !feasible {
			continue
		}
		obj := t.objective(sel, g)
		if best == nil || obj < best.Objective {
			best = &interSolution{Stages: sel, Objective: obj}
		}
	}
	if best == nil {
		return nil, evaluated, fmt.Errorf("core: uniform heuristic infeasible for S=%d G=%d", s, g)
	}
	return best, evaluated, nil
}

// stageCounts enumerates pipeline depths: divisors of the GPU count
// (uniform device split across stages). With heterogeneous device
// assignment, non-divisor depths up to 8 are also explored, since the
// device-aware solver can split the mesh unevenly.
func (t *Tuner) stageCounts() []int {
	total := t.Cluster.TotalGPUs()
	var out []int
	for s := 1; s <= total && s <= t.W.Model.Layers; s++ {
		if total%s == 0 || (t.Space.HeterogeneousDevices && s <= 8) {
			out = append(out, s)
		}
	}
	return out
}

// gradAccums enumerates gradient accumulation steps: divisors of the
// global batch size.
func (t *Tuner) gradAccums() []int {
	var out []int
	for g := 1; g <= t.W.GlobalBatch; g++ {
		if t.W.GlobalBatch%g == 0 {
			out = append(out, g)
		}
	}
	return out
}

// layerRange gives the candidate layer counts for one stage: a window
// around the balanced share ceil(L/S), clipped so every other stage can
// still receive at least one layer.
func (t *Tuner) layerRange(s, stageIdx int) []int {
	layers := t.W.Model.Layers
	if s == 1 {
		return []int{layers}
	}
	w := t.LayerWindow
	if w <= 0 {
		w = 2
	}
	center := (layers + s - 1) / s
	lo := center - w
	if lo < 1 {
		lo = 1
	}
	hi := center + w
	if maxL := layers - (s - 1); hi > maxL {
		hi = maxL
	}
	var out []int
	for l := lo; l <= hi; l++ {
		out = append(out, l)
	}
	return out
}

// PredictPlan prices an existing plan with the analyzer, returning the
// Eq. 1 iteration-time prediction (used by accuracy experiments and by
// multi-node "benchmark the strategy Mist found" flows).
func (t *Tuner) PredictPlan(p *plan.Plan) (float64, error) {
	if err := p.Validate(t.W); err != nil {
		return 0, err
	}
	maxT, sumT := 0.0, 0.0
	dm, prefix := 0.0, 0.0
	for _, st := range p.Stages {
		r, err := t.evaluate(st.Shape, st.Knobs)
		if err != nil {
			return 0, err
		}
		sumT += r.Stable
		maxT = math.Max(maxT, r.Stable)
		if v := r.Delta - prefix; v > dm {
			dm = v
		}
		prefix += r.Stable
	}
	return float64(p.GradAccum-1)*maxT + sumT + dm, nil
}
