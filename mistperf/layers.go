package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/graph"
	"repro/internal/interference"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/symbolic"
	"repro/internal/trainsim"
)

// tunedPlan is one workload spec with the plan the system returned.
type tunedPlan struct {
	spec      spec
	plan      *plan.Plan
	predicted float64
}

// layerBudget is how long each layer timing repeats its call.
const layerBudget = 60 * time.Millisecond

// layerPlans caps how many of a workload's plans the layer timings use.
const layerPlans = 4

// layerTimings times each layer's exported functions directly, on the
// workload's own specs and returned plans, and reports the median per
// call. It runs only in the traced run, after the measured phases.
func layerTimings(r *result, plans []tunedPlan, view *cluster.Cluster) error {
	if len(plans) > layerPlans {
		plans = plans[:layerPlans]
	}
	if len(plans) == 0 {
		return fmt.Errorf("layer timings: no tuned plan")
	}
	var evalNs, chanNs, missNs, hitNs, symNs, predNs, traceUs, playUs, measureUs []float64
	points := 0
	for _, tp := range plans {
		w, cl, err := resolve(tp.spec.WorkloadSpec)
		if err != nil {
			return err
		}
		an, err := core.CalibratedAnalyzer(w, cl, core.MistSpace())
		if err != nil {
			return err
		}
		st := tp.plan.Stages[0]
		shape := st.Shape
		ks := knobGrid(st.Knobs.Layers)
		points += len(ks)
		if _, err := an.EvaluateBatch(shape, ks); err != nil {
			return err
		}
		perCall := func(ns float64, n int) float64 { return ns / float64(n) }

		ns, _ := timeOp(layerBudget, 1, func() { _, _ = an.EvaluateBatch(shape, ks) })
		evalNs = append(evalNs, perCall(ns, len(ks)))
		ns, _ = timeOp(layerBudget, 64, func() { _, _ = an.Channels(shape, st.Knobs) })
		chanNs = append(chanNs, ns)

		ns, _ = timeOp(layerBudget, 1, func() { _, _ = evalcache.New(an).EvaluateBatch(shape, ks) })
		missNs = append(missNs, perCall(ns, len(ks)))
		warm := evalcache.New(an)
		if _, err := warm.EvaluateBatch(shape, ks); err != nil {
			return err
		}
		ns, _ = timeOp(layerBudget, 4, func() { _, _ = warm.EvaluateBatch(shape, ks) })
		hitNs = append(hitNs, perCall(ns, len(ks)))

		g, err := graph.TraceLayer(w.Model, w.Seq, shape.TP, w.Flash)
		if err != nil {
			return err
		}
		prog, err := symbolic.Compile([]*symbolic.Expr{g.PeakForwardBytes(), g.PeakBackwardBytes(), g.SavedActivationBytes()},
			[]string{graph.BSymbol})
		if err != nil {
			return err
		}
		frame, regs, out := []float64{float64(shape.B)}, prog.Scratch(), make([]float64, prog.NumOutputs())
		ns, _ = timeOp(layerBudget, 1024, func() { prog.EvalFrame(frame, regs, out) })
		symNs = append(symNs, ns)
		ns, _ = timeOp(layerBudget, 16, func() { _, _ = graph.TraceLayer(w.Model, w.Seq, shape.TP, w.Flash) })
		traceUs = append(traceUs, ns/1e3)

		rng := rand.New(rand.NewSource(int64(len(predNs))))
		xs := make([]interference.Times, 256)
		for i := range xs {
			for c := range xs[i] {
				if rng.Intn(3) > 0 {
					xs[i][c] = rng.Float64()
				}
			}
		}
		ns, _ = timeOp(layerBudget, 4, func() { an.Intf.PredictBatch(xs) })
		predNs = append(predNs, perCall(ns, len(xs)))

		mc := make([]pipeline.MicrobatchCost, len(tp.plan.Stages))
		for i, s := range tp.plan.Stages {
			res, err := an.Evaluate(s.Shape, s.Knobs)
			if err != nil {
				return err
			}
			mc[i] = pipeline.MicrobatchCost{Fwd: res.FwdTime, Bwd: res.BwdTime}
		}
		if _, err := pipeline.Playback1F1B(mc, tp.plan.GradAccum); err != nil {
			return err
		}
		ns, _ = timeOp(layerBudget, 16, func() { _, _ = pipeline.Playback1F1B(mc, tp.plan.GradAccum) })
		playUs = append(playUs, ns/1e3)
		eng := trainsim.New(w, cl, an)
		ns, _ = timeOp(layerBudget, 4, func() { _, _ = eng.Measure(tp.plan) })
		measureUs = append(measureUs, ns/1e3)
	}
	n := len(plans)
	r.set("schedule.eval_ns_per_point", median(evalNs), "ns", points)
	r.set("schedule.channels_ns", median(chanNs), "ns", n)
	r.set("evalcache.miss_ns_per_point", median(missNs), "ns", points)
	r.set("evalcache.hit_ns_per_point", median(hitNs), "ns", points)
	r.set("symbolic.eval_ns", median(symNs), "ns", n)
	r.set("graph.trace_layer_us", median(traceUs), "us", n)
	r.set("interference.predict_ns", median(predNs), "ns", n*256)
	r.set("pipeline.playback_us", median(playUs), "us", n)
	r.set("trainsim.measure_us", median(measureUs), "us", n)

	fitNs, fits := timeOp(4*layerBudget, 1, func() {
		interference.Fit(interference.PCIeFluid(), 12, rand.New(rand.NewSource(42)))
	})
	r.set("interference.fit_ms", fitNs/1e6, "ms", fits)

	return storeTimings(r, plans, view)
}

// knobGrid is a 27-point intra-stage candidate batch for a stage of the
// given layer count: checkpointing none/half/all crossed with activation
// and optimizer offload ratios of 0, 0.5 and 1.
func knobGrid(layers int) []schedule.Knobs {
	var ks []schedule.Knobs
	for _, ck := range []int{0, layers / 2, layers} {
		for _, ao := range []float64{0, 0.5, 1} {
			for _, oo := range []float64{0, 0.5, 1} {
				ks = append(ks, schedule.Knobs{Layers: layers, Ckpt: ck, AO: ao, OO: oo})
			}
		}
	}
	return ks
}

// storeTimings times the plan store (Get, Put, Nearest on an in-memory
// store holding the workload's records and batch variants of them) and
// ring routing on the workload's cluster view (a fresh 3-node
// LocalCluster when view is nil).
func storeTimings(r *result, plans []tunedPlan, view *cluster.Cluster) error {
	st := store.InMemory()
	var held, missing []store.Fingerprint
	for _, tp := range plans {
		w, _, err := resolve(tp.spec.WorkloadSpec)
		if err != nil {
			return err
		}
		for _, mul := range []int{1, 2, 4, 8} {
			fp := store.Fingerprint{Model: tp.spec.Model, Platform: tp.spec.Platform, GPUs: tp.spec.GPUs,
				Batch: tp.spec.Batch * mul, Seq: w.Seq, Flash: w.Flash, Space: "mist"}
			if _, err := st.Put(store.Record{Fingerprint: fp, Plan: tp.plan, Predicted: tp.predicted}); err != nil {
				return err
			}
			held = append(held, fp)
			fp.Batch += 8
			missing = append(missing, fp)
		}
	}
	i := 0
	getNs, gets := timeOp(layerBudget, 256, func() { st.Get(held[i%len(held)]); i++ })
	r.set("store.get_ns", getNs, "ns", gets)
	nearNs, nears := timeOp(layerBudget, 16, func() { st.Nearest(missing[i%len(missing)]); i++ })
	r.set("store.nearest_us", nearNs/1e3, "us", nears)
	var putErr error
	putNs, puts := timeOp(layerBudget, 16, func() {
		fp := missing[i%len(missing)]
		fp.Batch += 8 * (i / len(missing))
		if _, err := st.Put(store.Record{Fingerprint: fp, Plan: plans[0].plan}); err != nil {
			putErr = err
		}
		i++
	})
	if putErr != nil {
		return putErr
	}
	r.set("store.put_us", putNs/1e3, "us", puts)

	if view == nil {
		lc, err := serve.NewLocalCluster(serve.LocalClusterOptions{Nodes: fleetNodes, Replicas: fleetReplicas})
		if err != nil {
			return err
		}
		defer lc.Close()
		view = lc.Cluster("n1")
	}
	var keys []string
	for _, tp := range plans {
		k, err := tp.spec.WorkloadSpec.CanonicalKey()
		if err != nil {
			return err
		}
		keys = append(keys, k)
	}
	routeNs, routes := timeOp(layerBudget, 256, func() { view.Route(keys[i%len(keys)]); i++ })
	r.set("cluster.route_ns", routeNs, "ns", routes)
	return nil
}
