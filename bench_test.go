package mist

// One benchmark per table/figure of the paper's evaluation (§6). Each
// benchmark regenerates the corresponding experiment at the fast Small
// scale and reports the headline series as custom metrics; run
// `cmd/mistbench -exp <name> [-full]` for the printable tables and the
// paper-scale grids, and see EXPERIMENTS.md for recorded results.
//
// Benchmarks intentionally measure whole experiments (tune + execute):
// use -benchtime=1x for a single regeneration pass.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// runExperiment drives one named experiment b.N times.
func runExperiment(b *testing.B, name string) *experiments.Table {
	b.Helper()
	var tb *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = experiments.Run(name, experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tb.String())
	return tb
}

// speedupMetric extracts "<x>x" cells from a column and reports the mean
// as a custom benchmark metric.
func speedupMetric(b *testing.B, tb *experiments.Table, col int, metric string) {
	b.Helper()
	sum, n := 0.0, 0
	for _, row := range tb.Rows {
		if col >= len(row) || !strings.HasSuffix(row[col], "x") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), metric)
	}
}

// BenchmarkFig02Motivation regenerates Figure 2: tuning each memory
// optimization jointly with parallelism for GPT-3 2.7B on 4 L4 GPUs.
func BenchmarkFig02Motivation(b *testing.B) {
	tb := runExperiment(b, "fig2")
	speedupMetric(b, tb, 2, "speedup-vs-fullckpt")
}

// BenchmarkFig03Comprehensive regenerates Figure 3: comprehensive
// co-optimization vs checkpoint-only tuning for GPT-3 7B on 8 L4 GPUs.
func BenchmarkFig03Comprehensive(b *testing.B) {
	tb := runExperiment(b, "fig3")
	speedupMetric(b, tb, 2, "speedup-vs-3d")
}

// BenchmarkFig05SearchSpace regenerates Figure 5: exact configuration
// counts as optimizations are added.
func BenchmarkFig05SearchSpace(b *testing.B) {
	runExperiment(b, "fig5")
}

// BenchmarkFig11EndToEnd regenerates Figure 11: end-to-end throughput
// with FlashAttention vs Megatron-LM and DeepSpeed.
func BenchmarkFig11EndToEnd(b *testing.B) {
	tb := runExperiment(b, "fig11")
	speedupMetric(b, tb, len(tb.Header)-1, "mist-speedup")
}

// BenchmarkFig12NoFlash regenerates Figure 12: end-to-end throughput
// without FlashAttention, including the Aceso baseline.
func BenchmarkFig12NoFlash(b *testing.B) {
	tb := runExperiment(b, "fig12")
	speedupMetric(b, tb, len(tb.Header)-1, "mist-speedup")
}

// BenchmarkFig13Breakdown regenerates Figure 13: the incremental
// search-space ladder (3D -> +ZeRO -> +CKPT -> +offload -> +imbalance).
func BenchmarkFig13Breakdown(b *testing.B) {
	tb := runExperiment(b, "fig13")
	speedupMetric(b, tb, len(tb.Header)-1, "ladder-avg")
}

// BenchmarkFig14LayerSensitivity regenerates Figure 14: sensitivity to
// model depth with and without FlashAttention.
func BenchmarkFig14LayerSensitivity(b *testing.B) {
	tb := runExperiment(b, "fig14")
	speedupMetric(b, tb, 4, "mist-vs-3d")
}

// BenchmarkFig15BatchSensitivity regenerates Figure 15: sensitivity to
// the global batch size, isolating imbalance-aware pipelining.
func BenchmarkFig15BatchSensitivity(b *testing.B) {
	tb := runExperiment(b, "fig15")
	speedupMetric(b, tb, 3, "mist-vs-3d")
}

// BenchmarkFig16TuningTime regenerates Figure 16: tuning time as the
// search space grows, against a per-configuration re-simulation
// estimate.
func BenchmarkFig16TuningTime(b *testing.B) {
	runExperiment(b, "fig16")
}

// BenchmarkSec66PredictionAccuracy regenerates the §6.6 study: symbolic
// analyzer predictions vs the execution engine.
func BenchmarkSec66PredictionAccuracy(b *testing.B) {
	runExperiment(b, "accuracy")
}

// benchWorkload is the cold-search workload: a deep pipeline (8 GPUs)
// over the full Mist space.
func benchWorkload() (Workload, *Cluster) {
	return Workload{Model: Model("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 8}, L4Cluster(8)
}

// BenchmarkTuneCold measures the production search path: a fresh tuner
// (analyzer calibration included) and one full Mist-space search per
// iteration, every candidate priced by the symbolic analyzer.
func BenchmarkTuneCold(b *testing.B) {
	w, cl := benchWorkload()
	var res *core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn, err := core.New(w, cl, core.MistSpace())
		if err != nil {
			b.Fatal(err)
		}
		res, err = tn.Tune()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Candidates), "candidates")
}
