package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/symbolic"
)

// referenceEvaluate is the per-point pricing path the batched one must
// reproduce: one full EvalFrame and one full composition (all eight
// overlapped regions resolved afresh) per candidate.
func referenceEvaluate(a *Analyzer, shape StageShape, ks []Knobs) ([]Result, error) {
	sp := a.program(shape)
	if sp.err != nil {
		return nil, sp.err
	}
	out := make([]Result, len(ks))
	for i, k := range ks {
		if err := k.Validate(); err != nil {
			return nil, err
		}
		frame := []float64{float64(k.Layers), float64(k.Ckpt), k.WO, k.GO, k.OO, k.AO}
		out[i] = referenceCompose(a, shape, k, sp, sp.prog.EvalFrame(frame, nil, nil))
	}
	return out, nil
}

// referenceCompose applies the interference model to one candidate's
// evaluated channel aggregates, region by region.
func referenceCompose(a *Analyzer, shape StageShape, k Knobs, sp *stageProgram, out []float64) Result {
	nonCkpt := float64(k.Layers - k.Ckpt)
	ckpt := float64(k.Ckpt)

	fwdN := sp.tpARFwd + a.overlap(interference.Times{sp.cFwd, sp.agTime, out[outH2DFwdN], out[outD2HFwdN]})
	fwdC := sp.tpARFwd + a.overlap(interference.Times{sp.cFwd, sp.agTime, out[outH2DFwdC], out[outD2HFwdC]})
	fwdStage := nonCkpt*fwdN + ckpt*fwdC + sp.preFwd + sp.postFwd + sp.p2pTime

	bwdN := sp.tpARBwd + a.overlap(interference.Times{sp.cBwd, sp.agTime + sp.rsTime, out[outH2DBwdN], out[outD2HBwdN]})
	bwdC := sp.tpARBwd + sp.tpARFwd + a.overlap(interference.Times{
		sp.cBwd + sp.cFwd, 2*sp.agTime + sp.rsTime, out[outH2DBwdC], out[outD2HBwdC]})
	bwdStage := nonCkpt*bwdN + ckpt*bwdC + sp.preBwd + sp.postBwd + sp.p2pTime

	stable := fwdStage + bwdStage

	fwdFirstN := sp.tpARFwd + a.overlap(interference.Times{
		sp.cFwd + out[outStepGPULayer],
		sp.agTime,
		out[outH2DFwdN] + out[outStepH2DLayer],
		out[outD2HFwdN] + out[outStepD2HLayer],
	})
	fwdFirstC := sp.tpARFwd + a.overlap(interference.Times{
		sp.cFwd + out[outStepGPULayer],
		sp.agTime,
		out[outH2DFwdC] + out[outStepH2DLayer],
		out[outD2HFwdC] + out[outStepD2HLayer],
	})
	firstFwdStage := nonCkpt*fwdFirstN + ckpt*fwdFirstC + sp.preFwd + sp.postFwd + sp.p2pTime
	exposedPrefetch := sp.agTime + out[outH2DFwdN]
	if shape.ZeRO == 1 || shape.ZeRO == 2 {
		exposedPrefetch += float64(k.Layers) * a.Cluster.AllGatherTime(
			BytesParam*float64(a.Model.ParamsPerLayer())/float64(shape.TP), shape.DP)
	}
	exposedCPUStep := 0.0
	if cpuTotal := float64(k.Layers) * out[outStepCPULayer]; cpuTotal > 0 {
		hideCapacity := math.Max(0, firstFwdStage-fwdFirstN)
		exposedCPUStep = math.Max(out[outStepCPULayer], cpuTotal-hideCapacity)
	}
	firstExtra := (firstFwdStage - fwdStage) + exposedPrefetch + exposedCPUStep

	lastExtra := 0.0
	if sp.arGradLayer > 0 && shape.DP > 1 {
		bwdLastN := sp.tpARBwd + a.overlap(interference.Times{sp.cBwd, sp.arGradLayer, out[outH2DBwdN], out[outD2HBwdN]})
		bwdLastC := sp.tpARBwd + sp.tpARFwd + a.overlap(interference.Times{
			sp.cBwd + sp.cFwd, sp.arGradLayer, out[outH2DBwdC], out[outD2HBwdC]})
		lastBwdStage := nonCkpt*bwdLastN + ckpt*bwdLastC + sp.preBwd + sp.postBwd + sp.p2pTime
		lastExtra = lastBwdStage - bwdStage
	}
	if lastExtra < 0 {
		lastExtra = 0
	}
	stepTotal := float64(k.Layers) * (out[outStepGPULayer] + out[outStepCPULayer])
	delta := math.Max(0, firstExtra) + lastExtra

	pureFwd := nonCkpt*(sp.tpARFwd+sp.cFwd) + ckpt*(sp.tpARFwd+sp.cFwd)
	pureBwd := nonCkpt*(sp.tpARBwd+sp.cBwd) + ckpt*(sp.tpARBwd+sp.tpARFwd+sp.cBwd+sp.cFwd)
	memOpt := stable - (pureFwd + pureBwd + sp.preFwd + sp.preBwd + sp.postFwd + sp.postBwd + 2*sp.p2pTime)

	return Result{
		Stable:  stable,
		Delta:   delta,
		PeakMem: out[outPeakMem],
		FwdTime: fwdStage, BwdTime: bwdStage,
		OptStepTime:    stepTotal,
		MemOptOverhead: math.Max(0, memOpt),
	}
}

// sameBits reports the first Result field whose bits differ, or "".
func sameBits(got, want Result) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if math.Float64bits(g.Field(i).Float()) != math.Float64bits(w.Field(i).Float()) {
			return fmt.Sprintf("%s: batch %v, reference %v", g.Type().Field(i).Name, g.Field(i).Float(), w.Field(i).Float())
		}
	}
	return ""
}

// oracleRatio draws an offload ratio: grid values, the signed zero, or an
// arbitrary point of [0, 1].
func oracleRatio(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 0.5
	case 3:
		return math.Copysign(0, -1)
	default:
		return rng.Float64()
	}
}

func oracleKnob(rng *rand.Rand, layers int) Knobs {
	return Knobs{
		Layers: layers, Ckpt: rng.Intn(layers + 1),
		WO: oracleRatio(rng), GO: oracleRatio(rng), OO: oracleRatio(rng), AO: oracleRatio(rng),
	}
}

// oracleBatches builds the knob batches for one shape: random order with
// mixed layer counts and non-grid ratios, tuple-major runs (the tuner's
// order), ckpt-major sweeps, and duplicated candidates, at lengths on
// both sides of the column block.
func oracleBatches(rng *rand.Rand) [][]Knobs {
	const block = symbolic.ColumnBlock
	var batches [][]Knobs
	for _, n := range []int{0, 1, block - 1, block, block + 1, 2*block + 5} {
		random := make([]Knobs, n)
		for i := range random {
			random[i] = oracleKnob(rng, rng.Intn(40))
		}
		batches = append(batches, random)

		// Runs of one tuple over several checkpoint counts, then the
		// same candidates interleaved ckpt-major.
		var tupleMajor []Knobs
		for len(tupleMajor) < n {
			k := oracleKnob(rng, 8+rng.Intn(24))
			for run := 1 + rng.Intn(6); run > 0 && len(tupleMajor) < n; run-- {
				k.Ckpt = rng.Intn(k.Layers + 1)
				tupleMajor = append(tupleMajor, k)
			}
		}
		batches = append(batches, tupleMajor)
		ckptMajor := append([]Knobs(nil), tupleMajor...)
		rng.Shuffle(len(ckptMajor), func(i, j int) { ckptMajor[i], ckptMajor[j] = ckptMajor[j], ckptMajor[i] })
		batches = append(batches, ckptMajor)

		dups := make([]Knobs, n)
		for i := range dups {
			if i > 0 && rng.Intn(2) == 0 {
				dups[i] = dups[rng.Intn(i)]
			} else {
				dups[i] = oracleKnob(rng, rng.Intn(40))
			}
		}
		batches = append(batches, dups)
	}
	return batches
}

// TestBatchMatchesReference: the batched path (one column sweep, regions
// shared across adjacent knobs of one offload tuple) prices every
// candidate bit for bit like the per-point reference, over ZeRO 0-3, DP
// 1 and >1, pre/post sections, pipelined stages, a MoE model, and
// Serialize on and off. One scratch and one result buffer are reused
// across every batch, as the tuner reuses them.
func TestBatchMatchesReference(t *testing.T) {
	dense := newTestAnalyzer(t, "gpt3-2.7b", 8, true)
	moe := newTestAnalyzer(t, "gpt3-1.3b", 8, true)
	moe.Model = model.MustMoEByName("gpt3-1.3b", 8, 2)

	var shapes []StageShape
	for _, dp := range []int{1, 2, 4} {
		for zero := 0; zero <= 3; zero++ {
			for _, pos := range []struct{ pre, post bool }{{true, true}, {true, false}, {false, false}, {false, true}} {
				stages, idx := 1, 0
				if !pos.pre || !pos.post {
					stages = 4
					if !pos.pre {
						idx = 1 + dp%3
					}
				}
				shapes = append(shapes, StageShape{
					B: 2, DP: dp, TP: 2, ZeRO: zero,
					HasPre: pos.pre, HasPost: pos.post,
					NumStages: stages, StageIdx: idx, GradAccum: 4,
				})
			}
		}
	}

	rng := rand.New(rand.NewSource(14))
	var sc EvalScratch
	var dst []Result
	checked := 0
	for _, an := range []struct {
		name string
		a    *Analyzer
	}{{"dense", dense}, {"moe", moe}} {
		for _, serialize := range []bool{false, true} {
			an.a.Serialize = serialize
			for _, shape := range shapes {
				for bi, ks := range oracleBatches(rng) {
					want, err := referenceEvaluate(an.a, shape, ks)
					if err != nil {
						t.Fatal(err)
					}
					got, err := an.a.EvaluateBatchInto(dst, shape, ks, &sc)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(ks) {
						t.Fatalf("%s serialize=%v %+v batch %d: %d results for %d knobs", an.name, serialize, shape, bi, len(got), len(ks))
					}
					for i := range ks {
						if diff := sameBits(got[i], want[i]); diff != "" {
							t.Fatalf("%s serialize=%v %+v batch %d knob %d %+v: %s", an.name, serialize, shape, bi, i, ks[i], diff)
						}
					}
					dst = got[:0]
					checked += len(ks)
				}
			}
			an.a.Serialize = false
		}
	}
	t.Logf("%d candidates bit-identical", checked)
}

// TestBatchRejectsInvalidKnob: a batch containing one invalid knob fails
// as a whole, wherever the knob sits.
func TestBatchRejectsInvalidKnob(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	ks := make([]Knobs, symbolic.ColumnBlock+2)
	for i := range ks {
		ks[i] = Knobs{Layers: 8, Ckpt: i % 9}
	}
	for _, at := range []int{0, symbolic.ColumnBlock, len(ks) - 1} {
		bad := append([]Knobs(nil), ks...)
		bad[at].AO = math.NaN()
		if _, err := a.EvaluateBatch(baseShape(), bad); err == nil {
			t.Errorf("NaN ratio at %d accepted", at)
		}
	}
}
