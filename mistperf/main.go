// Command mistperf is the repository's end-to-end benchmark. It
// runs one seeded workload against the public surfaces of the system —
// the mist library facade for cold searches, an in-process 3-node
// serve.LocalCluster for the service — and prints every end-to-end
// metric (or, with --trace 1, every per-layer metric) as the last line
// of its standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A full report (environment header, sample counts, correctness gates,
// metrics absent on this workload and why) is printed before that line.
// Run it from the repository root through mistperf/run.sh, which builds
// it from source; see mistperf/ATTRIBUTION.md for what each metric
// times and which end-to-end figure it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// benchFile is the benchmark declaration read from the working directory
// (the repository root): the program's metric names must match it.
const benchFile = "BENCHMARK.json"

// metricDecl is one metric entry of BENCHMARK.json.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchDecl is the part of BENCHMARK.json the program checks itself
// against.
type benchDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// measured is one reported figure with its sample count.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// gateResult is one correctness check's outcome.
type gateResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result accumulates everything a workload run reports.
type result struct {
	Metrics   map[string]measured `json:"metrics"`
	Absent    map[string]string   `json:"absent,omitempty"`
	Gates     []gateResult        `json:"gates"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Notes     map[string]any      `json:"notes,omitempty"`
}

func newResult() *result {
	return &result{Metrics: map[string]measured{}, Absent: map[string]string{}, Notes: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = measured{Value: v, Unit: unit, N: n}
}

// absent reports a metric this workload has no operations for: it is
// printed as 0 with n = 0, and the reason goes into the full report.
func (r *result) absent(name, unit, why string) {
	r.Metrics[name] = measured{Value: 0, Unit: unit, N: 0}
	r.Absent[name] = why
}

func (r *result) gate(name string, ok bool, detail string, args ...any) {
	r.Gates = append(r.Gates, gateResult{Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...)})
}

func (r *result) correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return true
}

// workloads maps each BENCHMARK.json workload to its runner.
var workloads = map[string]func(cfg runConfig, r *result) error{
	"tune-cold": runTuneCold,
	"serve-hot": runServeHot,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mistperf:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "workload name from BENCHMARK.json")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed: the same seed gives the same specs and op sequence")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured duration in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics (the only run with tracing on)")
	flag.Parse()
	cfg.Trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.Seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	decl, err := loadDecl()
	if err != nil {
		return err
	}
	fn, ok := workloads[cfg.Workload]
	if !ok || !decl.hasWorkload(cfg.Workload) {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}

	r := newResult()
	r.Notes["not_on_measured_path"] = notMeasured
	selfCheck(cfg, r)
	start := time.Now()
	if err := fn(cfg, r); err != nil {
		return fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	r.Notes["wall_s"] = time.Since(start).Seconds()
	if r.Attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", cfg.Workload)
	}

	want := decl.EndToEnd
	if cfg.Trace {
		want = decl.PerLayer
	}
	checkNames(r, want)
	out := map[string]measured{}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s not produced", cfg.Workload, m.Name)
		}
		out[m.Name] = got
	}

	report := map[string]any{
		"env":       envHeader(cfg),
		"workload":  cfg.Workload,
		"correct":   r.correct(),
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"gates":     r.Gates,
		"metrics":   r.Metrics,
		"absent":    r.Absent,
		"notes":     r.Notes,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))

	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]short{}}
	for k, m := range out {
		last.Metrics[k] = short{m.Value, m.Unit}
	}
	buf, err = json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

func loadDecl() (*benchDecl, error) {
	buf, err := os.ReadFile(benchFile)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var d benchDecl
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", benchFile, err)
	}
	return &d, nil
}

func (d *benchDecl) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// checkNames gates the metric set: every declared metric of this mode is
// produced with its declared unit, and every produced metric of this
// mode is declared.
func checkNames(r *result, want []metricDecl) {
	var bad []string
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			bad = append(bad, m.Name+" missing")
		} else if got.Unit != m.Unit {
			bad = append(bad, fmt.Sprintf("%s unit %s, declared %s", m.Name, got.Unit, m.Unit))
		}
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
	}
	for name := range r.Metrics {
		if !declared[name] && modeOf(name) == modeOf(want[0].Name) {
			bad = append(bad, name+" undeclared")
		}
	}
	sort.Strings(bad)
	r.gate("metric names match "+benchFile, len(bad) == 0, "%v", bad)
}

// modeOf tells end-to-end names (no dot) from per-layer names
// (layer.metric).
func modeOf(name string) string {
	for _, c := range name {
		if c == '.' {
			return "layer"
		}
	}
	return "e2e"
}
