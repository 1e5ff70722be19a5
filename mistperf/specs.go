package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	mist "repro"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/serve"
)

// spec is one request of a workload in wire form; Golden names the
// testdata/golden_plans.json case it must reproduce, if any.
type spec struct {
	Golden string `json:"golden,omitempty"`
	serve.WorkloadSpec
}

func (s spec) label() string {
	l := fmt.Sprintf("%s/%s/x%d/b%d", s.Model, s.Platform, s.GPUs, s.Batch)
	if s.Seq != 0 {
		l += fmt.Sprintf("/s%d", s.Seq)
	}
	return l
}

// resolve turns a wire spec into the library's workload and cluster,
// with the service's defaults (sequence 2048 on L4, 4096 on A100).
func resolve(ws serve.WorkloadSpec) (plan.Workload, *hardware.Cluster, error) {
	cfg, err := model.ByName(ws.Model)
	if err != nil {
		return plan.Workload{}, nil, err
	}
	if _, _, err := hardware.MeshForGPUs(ws.GPUs); err != nil {
		return plan.Workload{}, nil, err
	}
	seq := ws.Seq
	var cl *hardware.Cluster
	switch ws.Platform {
	case "a100":
		cl = mist.A100Cluster(ws.GPUs)
		if seq == 0 {
			seq = 4096
		}
	case "l4", "":
		cl = mist.L4Cluster(ws.GPUs)
		if seq == 0 {
			seq = 2048
		}
	default:
		return plan.Workload{}, nil, fmt.Errorf("unknown platform %q", ws.Platform)
	}
	w := plan.Workload{Model: cfg, Seq: seq, Flash: !ws.NoFlash, GlobalBatch: ws.Batch}
	return w, cl, w.Validate()
}

var families = []string{"gpt3", "llama", "falcon"}

// slot is one stratum of a seeded spec list: platform, GPU count and
// model size are fixed (they set a search's cost and a plan's
// throughput); the seed picks the model family and one of the batches.
type slot struct {
	platform string
	gpus     int
	size     string
	batches  []int
}

func (s slot) spec(rng *rand.Rand) spec {
	return spec{WorkloadSpec: serve.WorkloadSpec{
		Model:    families[rng.Intn(len(families))] + "-" + s.size,
		Platform: s.platform,
		GPUs:     s.gpus,
		Batch:    s.batches[rng.Intn(len(s.batches))],
	}}
}

// goldenSpecs are the full-Mist-space cases of testdata/golden_plans.json;
// every tune-cold list includes them.
var goldenSpecs = []spec{
	{Golden: "bench-mist-l4x8", WorkloadSpec: serve.WorkloadSpec{Model: "gpt3-2.7b", Platform: "l4", GPUs: 8, Batch: 8, Seq: 2048}},
	{Golden: "small-mist-l4x2", WorkloadSpec: serve.WorkloadSpec{Model: "gpt3-1.3b", Platform: "l4", GPUs: 2, Batch: 8, Seq: 2048}},
	{Golden: "mist-a100x4", WorkloadSpec: serve.WorkloadSpec{Model: "gpt3-2.7b", Platform: "a100", GPUs: 4, Batch: 8, Seq: 2048}},
}

// coldSlots stratify the seeded part of the tune-cold list: 1.3b to
// 22b models, 4 to 32 GPUs, L4 and A100, batch 16 to 128. Each slot
// fixes what sets a search's cost, so the seed only picks the model
// family (and the request order).
var coldSlots = []slot{
	{"l4", 4, "1.3b", []int{32}},
	{"a100", 4, "2.7b", []int{16}},
	{"l4", 4, "7b", []int{64}},
	{"l4", 8, "2.7b", []int{32}},
	{"a100", 8, "7b", []int{64}},
	{"l4", 8, "13b", []int{128}},
	{"l4", 16, "7b", []int{64}},
	{"a100", 16, "13b", []int{32}},
	{"l4", 32, "22b", []int{64}},
}

// coldWarmup is tune-cold's unmeasured set-up search; no list contains
// it (no slot uses batch 24).
var coldWarmup = spec{WorkloadSpec: serve.WorkloadSpec{Model: "falcon-2.7b", Platform: "l4", GPUs: 4, Batch: 24}}

// coldSpecs is the tune-cold request list for a seed, in request order.
func coldSpecs(seed int64) []spec {
	rng := rand.New(rand.NewSource(seed))
	out := append([]spec(nil), goldenSpecs...)
	for _, s := range coldSlots {
		out = append(out, s.spec(rng))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// poolGroups are the analyzer configurations (model, platform, GPUs,
// sequence) of serve-hot's pool: four 2-GPU platform and
// size strata, each in all three families, so every seed gets the same
// groups. Each contributes poolPerGroup batches. 2-GPU groups keep
// set-up short and the fleet's evaluation caches, and so its heap and GC
// work, small.
var poolGroups = func() []spec {
	var out []spec
	for _, st := range []slot{{"l4", 2, "1.3b", nil}, {"a100", 2, "2.7b", nil}, {"l4", 2, "7b", nil}, {"a100", 2, "13b", nil}} {
		for _, fam := range families {
			out = append(out, spec{WorkloadSpec: serve.WorkloadSpec{Model: fam + "-" + st.size, Platform: st.platform, GPUs: st.gpus}})
		}
	}
	return out
}()

var (
	// poolBatches are tried in a seeded order; poolBackupBatch only
	// replaces a batch the service answered 422.
	poolBatches     = []int{8, 16, 32, 64}
	poolBackupBatch = 128
)

const poolPerGroup = 4

// poolCandidates lists, per pool group, the batches to try in order:
// set-up keeps the first poolPerGroup the service answers with 200.
func poolCandidates(seed int64) [][]spec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed9001))
	out := make([][]spec, len(poolGroups))
	for i, s := range poolGroups {
		for _, bi := range rng.Perm(len(poolBatches)) {
			s.Batch = poolBatches[bi]
			out[i] = append(out[i], s)
		}
		s.Batch = poolBackupBatch
		out[i] = append(out[i], s)
	}
	return out
}

// splitmix64 is the per-operation hash behind the closed-loop op
// sequence: op i is a pure function of (seed, i), whichever client
// issues it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// zipf draws ranks with P(k) proportional to 1/(k+1)^s over n ranks.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z zipf) draw(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

const zipfS = 1.1

// hotOp is serve-hot's op i: a Zipf rank into the pool's seeded rank
// order, and whether it is a /simulate (10%) rather than a /tune.
func hotOp(seed int64, i uint64, z zipf) (rank int, simulate bool) {
	h := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 ^ i)
	return z.draw(unit01(h)), splitmix64(h)%10 == 0
}

// digest hashes any JSON-encodable input for the determinism check.
func digest(v any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// inputsDigest hashes everything a seed generates for a workload: the
// spec lists and the first part of the op sequence.
func inputsDigest(workload string, seed int64) string {
	z := newZipf(len(poolGroups)*poolPerGroup, zipfS)
	if workload == "tune-cold" {
		return digest(coldSpecs(seed))
	}
	ops := make([]int, 20000)
	for i := range ops {
		r, sim := hotOp(seed, uint64(i), z)
		ops[i] = r * 2
		if sim {
			ops[i]++
		}
	}
	return digest([]any{poolCandidates(seed), ops})
}

// selfCheck gates determinism: generating a seed's inputs twice gives
// the same spec lists and op sequence.
func selfCheck(cfg runConfig, r *result) {
	a, b := inputsDigest(cfg.Workload, cfg.Seed), inputsDigest(cfg.Workload, cfg.Seed)
	r.Notes["inputs_digest"] = a
	r.gate("same seed gives the same specs and op sequence", a == b, "%s vs %s", a, b)
}
