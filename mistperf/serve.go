package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Serve workload shape.
const (
	fleetNodes    = 3
	fleetReplicas = 2
	// hotClients is serve-hot's closed-loop caller count. With two
	// callers on the 2-core reference box the hit median switched
	// between about 20 and 30 µs for seconds at a time, so it spread by
	// 20-35% between runs; with one caller it spreads by 5-15%.
	hotClients  = 1
	serveSetups = 3
	// scrapeEvery is each node's /metrics scrape interval. A scrape
	// takes 30-100 ms on the reference box (see
	// serve.metrics_scrape_ms); at one scrape per node per second the
	// serve-hot latency median spread by about 20% between runs, against
	// 5-15% at 5 s.
	scrapeEvery = 5 * time.Second

	// tracedPerPhase bounds the sampled hits of a traced phase, so no
	// node's 256-trace ring overflows.
	tracedPerPhase = 150
)

// fleet is the in-process cluster under test, with one mounted handler
// per node (mounting is not free, so it happens once).
type fleet struct {
	lc       *serve.LocalCluster
	ids      []string
	handlers []http.Handler
	views    []*cluster.Cluster
}

func newFleet(traced bool) (*fleet, error) {
	opt := serve.LocalClusterOptions{Nodes: fleetNodes, Replicas: fleetReplicas}
	if traced {
		// SampleEvery 0: a node records only requests the client stamps
		// with X-Mist-Trace, so the client decides what is traced.
		opt.ServerOptions = []serve.Option{serve.WithTrace(trace.Options{})}
	}
	lc, err := serve.NewLocalCluster(opt)
	if err != nil {
		return nil, err
	}
	f := &fleet{lc: lc}
	for _, id := range lc.IDs() {
		f.ids = append(f.ids, id)
		f.handlers = append(f.handlers, lc.Handler(id))
		f.views = append(f.views, lc.Cluster(id))
	}
	return f, nil
}

func (f *fleet) close() { f.lc.Close() }

// call sends one request into a node's handler, stamping a trace id
// when given, and returns the status and body.
func (f *fleet) call(ctx context.Context, node int, method, path string, body []byte, traceID string) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, method, "http://"+f.ids[node]+path, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set(trace.HeaderTrace, traceID)
	}
	rec := httptest.NewRecorder()
	f.handlers[node].ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// owner is the index of the node owning a fingerprint key on the ring.
func (f *fleet) owner(key string) int {
	id := f.views[0].Owner(key)
	for i, x := range f.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// tuneReply is the part of a /tune response the benchmark reads; fields
// a later version drops decode as zero.
type tuneReply struct {
	Plan            *plan.Plan `json:"plan"`
	Predicted       float64    `json:"predictedIterTime"`
	Candidates      int        `json:"candidates"`
	SGPairs         int        `json:"sgPairs"`
	ElapsedMS       float64    `json:"elapsedMs"`
	EvalCacheHits   uint64     `json:"evalCacheHits"`
	EvalCacheMisses uint64     `json:"evalCacheMisses"`
	EvalHitRate     float64    `json:"evalCacheHitRate"`
	Cached          bool       `json:"cached"`
	FromStore       bool       `json:"fromStore"`
	WarmStarted     bool       `json:"warmStarted"`
	WarmPruned      int        `json:"warmPrunedCandidates"`
	WarmAborted     int        `json:"warmAbortedPairs"`
}

// searched reports whether the reply came from a fresh search.
func (t *tuneReply) searched() bool { return !t.Cached && !t.FromStore }

// simReply is the part of a /simulate response the benchmark reads.
type simReply struct {
	IterTime   float64    `json:"iterTime"`
	Throughput float64    `json:"throughput"`
	PeakMem    []float64  `json:"peakMem"`
	Budget     float64    `json:"memoryBudget"`
	OOM        bool       `json:"oom"`
	TunedPlan  *plan.Plan `json:"tunedPlan"`
}

// poolKey is one hot-pool fingerprint with what set-up learned about it.
type poolKey struct {
	spec     spec
	key      string
	tuneBody []byte
	simBody  []byte
	plan     []byte // the plan's encoding, which every later reply must repeat
	owner    int
	tuned    tuneReply
	sim      simReply
}

// pool is the set-up hot pool: its keys, their Zipf rank order,
// and the set-up searches.
type pool struct {
	keys       []*poolKey
	rank       []int     // Zipf rank -> key index
	searchLat  []float64 // set-up search latencies (ms)
	searches   []tuneReply
	rejected   int // candidates the service answered 422 (excluded)
	bad        []string
	setupS     float64
	fleetSetup *fleet
}

// setUp builds a fleet and tunes the seed's hot pool through it, one
// request at a time, entering the nodes round-robin. When traced, every
// set-up search carries a trace id, so the traced run also sees the
// store writes, replication and warm starts of new keys.
func setUp(ctx context.Context, seed int64, traced bool) (*pool, error) {
	t0 := time.Now()
	f, err := newFleet(traced)
	if err != nil {
		return nil, err
	}
	p := &pool{fleetSetup: f}
	for _, group := range poolCandidates(seed) {
		kept := 0
		for _, s := range group {
			if kept == poolPerGroup {
				break
			}
			tid := ""
			if traced {
				tid = traceID(seed, 3, uint64(len(p.searches)+p.rejected))
			}
			k, err := p.tune(ctx, f, s, tid)
			if err != nil {
				f.close()
				return nil, err
			}
			if k != nil {
				p.keys = append(p.keys, k)
				kept++
			}
		}
	}
	for _, k := range p.keys {
		code, body := f.call(ctx, k.owner, http.MethodPost, "/simulate", k.simBody, "")
		if code != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("set-up /simulate %s: %d %s", k.spec.label(), code, body)
		}
		if err := json.Unmarshal(body, &k.sim); err != nil {
			f.close()
			return nil, err
		}
		if msg := checkSim(k, &k.sim); msg != "" {
			p.bad = append(p.bad, msg)
		}
	}
	// Popularity is fixed, not seeded: rank k is the k-th key by (batch,
	// group), so the hottest keys (whose plan sizes set the cost of a
	// hit) are the same for every seed, and seeds differ in the op
	// sequence drawn over them.
	p.rank = make([]int, len(p.keys))
	for i := range p.rank {
		p.rank[i] = i
	}
	sort.SliceStable(p.rank, func(a, b int) bool {
		return p.keys[p.rank[a]].spec.Batch < p.keys[p.rank[b]].spec.Batch
	})
	p.setupS = time.Since(t0).Seconds()
	return p, nil
}

// tune adds one pool candidate: a 200 must be a fresh search with a
// valid plan; a 422 (no feasible plan) excludes the spec from the pool.
func (p *pool) tune(ctx context.Context, f *fleet, s spec, traceID string) (*poolKey, error) {
	w, _, err := resolve(s.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	k := &poolKey{spec: s}
	if k.key, err = s.WorkloadSpec.CanonicalKey(); err != nil {
		return nil, err
	}
	if k.tuneBody, err = json.Marshal(serve.TuneRequest{WorkloadSpec: s.WorkloadSpec}); err != nil {
		return nil, err
	}
	if k.simBody, err = json.Marshal(serve.SimulateRequest{WorkloadSpec: s.WorkloadSpec}); err != nil {
		return nil, err
	}
	k.owner = f.owner(k.key)
	t0 := time.Now()
	code, body := f.call(ctx, len(p.searches)%fleetNodes, http.MethodPost, "/tune", k.tuneBody, traceID)
	lat := time.Since(t0)
	if code == http.StatusUnprocessableEntity {
		p.rejected++
		return nil, nil
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("set-up /tune %s: %d %s", s.label(), code, body)
	}
	if err := json.Unmarshal(body, &k.tuned); err != nil {
		return nil, err
	}
	p.searchLat = append(p.searchLat, ms(lat))
	p.searches = append(p.searches, k.tuned)
	if !k.tuned.searched() || k.tuned.Candidates == 0 {
		p.bad = append(p.bad, s.label()+": first request for a new key did not search")
	}
	if k.tuned.Plan == nil || k.tuned.Plan.Validate(w) != nil {
		p.bad = append(p.bad, s.label()+": set-up plan missing or invalid")
		return k, nil
	}
	k.plan, _ = json.Marshal(k.tuned.Plan)
	return k, nil
}

// checkSim gates one /simulate reply: no OOM, every stage within the
// budget, and the executed plan is the pool's plan. "" when it passes.
func checkSim(k *poolKey, s *simReply) string {
	if s.OOM {
		return k.spec.label() + ": simulated plan is OOM"
	}
	for _, m := range s.PeakMem {
		if m > s.Budget {
			return fmt.Sprintf("%s: stage peak %.0f over budget %.0f", k.spec.label(), m, s.Budget)
		}
	}
	if s.TunedPlan != nil {
		if enc, _ := json.Marshal(s.TunedPlan); !bytes.Equal(enc, k.plan) {
			return k.spec.label() + ": /simulate executed a different plan"
		}
	}
	return ""
}

// checkHit gates a /tune reply for a pool key: answered without a
// search, with the pool's plan. "" when it passes.
func checkHit(k *poolKey, t *tuneReply) string {
	if t.searched() {
		return k.spec.label() + ": hot-pool request ran a search"
	}
	if enc, _ := json.Marshal(t.Plan); !bytes.Equal(enc, k.plan) {
		return k.spec.label() + ": hot-pool reply carries a different plan"
	}
	return ""
}

// setUpRepeated sets up serveSetups times and keeps the last fleet;
// setup_s is the median.
func setUpRepeated(ctx context.Context, cfg runConfig, r *result) (*pool, *fleet, error) {
	var times []float64
	var p *pool
	for i := 0; i < serveSetups; i++ {
		if p != nil {
			p.fleetSetup.close()
		}
		var err error
		if p, err = setUp(ctx, cfg.Seed, cfg.Trace); err != nil {
			return nil, nil, err
		}
		times = append(times, p.setupS)
	}
	r.set("setup_s", median(times), "s", len(times))
	r.Notes["pool_keys"] = len(p.keys)
	r.Notes["pool_rejected_422"] = p.rejected
	r.gate("each new pool key is searched once, answered 200 with a valid plan that simulates within budget",
		len(p.bad) == 0, "%v", p.bad)
	return p, p.fleetSetup, nil
}

// replyCache remembers each distinct response body per pool key, so a
// repeated identical reply is decoded and checked once. Safe for
// concurrent use.
type replyCache struct {
	mu   sync.Mutex
	seen map[uint64]replyInfo
}

type replyInfo struct {
	cached, fromStore bool
	problem           string
}

func newReplyCache() *replyCache { return &replyCache{seen: map[uint64]replyInfo{}} }

// check decodes and gates a 200 reply for pool key idx (a /simulate
// reply when sim).
func (rc *replyCache) check(p *pool, idx int, sim bool, body []byte) replyInfo {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64() ^ splitmix64(uint64(idx))
	rc.mu.Lock()
	info, ok := rc.seen[sum]
	rc.mu.Unlock()
	if ok {
		return info
	}
	k := p.keys[idx]
	if sim {
		var s simReply
		if err := json.Unmarshal(body, &s); err != nil {
			info.problem = k.spec.label() + ": undecodable /simulate reply"
		} else {
			info.problem = checkSim(k, &s)
		}
	} else {
		var t tuneReply
		if err := json.Unmarshal(body, &t); err != nil {
			info.problem = k.spec.label() + ": undecodable /tune reply"
		} else {
			info = replyInfo{cached: t.Cached, fromStore: t.FromStore, problem: checkHit(k, &t)}
		}
	}
	rc.mu.Lock()
	rc.seen[sum] = info
	rc.mu.Unlock()
	return info
}

// opStats is one client's (or one phase's) tally.
type opStats struct {
	tuneLat, simLat   []float64 // ms, successful ops only
	tracedLat         []float64 // ms, traced /tune hits
	untracedLat       []float64 // ms, untraced /tune hits in a traced phase
	ok, failed, r429  int
	cached, fromStore int
	forwarded         int
	problems          []string
}

func (s *opStats) merge(o *opStats) {
	s.tuneLat = append(s.tuneLat, o.tuneLat...)
	s.simLat = append(s.simLat, o.simLat...)
	s.tracedLat = append(s.tracedLat, o.tracedLat...)
	s.untracedLat = append(s.untracedLat, o.untracedLat...)
	s.ok += o.ok
	s.failed += o.failed
	s.r429 += o.r429
	s.cached += o.cached
	s.fromStore += o.fromStore
	s.forwarded += o.forwarded
	if len(s.problems) < 20 {
		s.problems = append(s.problems, o.problems...)
	}
}

func (s *opStats) problem(msg string) {
	if msg != "" && len(s.problems) < 20 {
		s.problems = append(s.problems, msg)
	}
}

// traceID renders a client-chosen trace id (16 hex digits).
func traceID(seed int64, phase, i uint64) string {
	return fmt.Sprintf("%016x", splitmix64(uint64(seed)^phase<<56^i))
}

// scraper fetches every node's GET /metrics once per scrapeEvery until
// stopped, timing each scrape and keeping the last text per node. The
// nodes are scraped at staggered offsets, as a scraper spreads its
// targets over the interval.
type scraper struct {
	mu    sync.Mutex
	times []float64
	last  []string
	stop  context.CancelFunc
	wg    sync.WaitGroup
}

func startScraper(ctx context.Context, f *fleet) *scraper {
	ctx, cancel := context.WithCancel(ctx)
	sc := &scraper{stop: cancel, last: make([]string, len(f.ids))}
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		tick := time.NewTicker(scrapeEvery / time.Duration(len(f.ids)))
		defer tick.Stop()
		for n := 0; ; n = (n + 1) % len(f.ids) {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			sc.scrapeNode(ctx, f, n)
		}
	}()
	return sc
}

// scrape fetches every node's /metrics once.
func (sc *scraper) scrape(ctx context.Context, f *fleet) {
	for n := range f.ids {
		sc.scrapeNode(ctx, f, n)
	}
}

func (sc *scraper) scrapeNode(ctx context.Context, f *fleet, n int) {
	t0 := time.Now()
	code, body := f.call(ctx, n, http.MethodGet, "/metrics", nil, "")
	d := time.Since(t0)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if code == http.StatusOK {
		sc.times = append(sc.times, ms(d))
		sc.last[n] = string(body)
	}
}

func (sc *scraper) finish() {
	sc.stop()
	sc.wg.Wait()
}

// series sums a metric family over the nodes' last scrapes; ok is false
// when no node exposes it (series names may change between versions).
func (sc *scraper) series(name string) (float64, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	total, found := 0.0, false
	for _, text := range sc.last {
		s := bufio.NewScanner(strings.NewReader(text))
		for s.Scan() {
			line := s.Text()
			if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
				continue
			}
			rest := line[len(name):]
			if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			fields := strings.Fields(line)
			if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
				total += v
				found = true
			}
		}
	}
	return total, found
}

// harvestTraces reads every node's trace ring and the dropped count.
func harvestTraces(ctx context.Context, f *fleet) (*traceSet, uint64, error) {
	ts := newTraceSet()
	var dropped uint64
	for n := range f.ids {
		code, body := f.call(ctx, n, http.MethodGet, "/debug/traces", nil, "")
		if code != http.StatusOK {
			return nil, 0, fmt.Errorf("GET /debug/traces on %s: %d", f.ids[n], code)
		}
		var dt serve.DebugTraces
		if err := json.Unmarshal(body, &dt); err != nil {
			return nil, 0, err
		}
		ts.add(dt.Traces)
		dropped += dt.Stats.TracesDropped
	}
	return ts, dropped, nil
}

// setServeSpans reports the serve and cluster span metrics of a traced
// phase. Forward is reported as self time (the hop, without the peer's
// own handling); the others as whole-span durations.
func setServeSpans(r *result, ts *traceSet) {
	const why = "no such span in the traced phase of this workload"
	setSpanMetric(r, "serve.admission_ms", ts.durations("admission", false), why)
	setSpanMetric(r, "serve.store_check_ms", ts.durations("store-check", false), why)
	setSpanMetric(r, "serve.prepare_ms", ts.durations("prepare", false), why)
	setSpanMetric(r, "cluster.forward_ms", ts.durations("forward", true), why)
	setSpanMetric(r, "cluster.replication_ms", ts.durations("replication", false), why)
	setSpanMetric(r, "core.intra_sweep_ms", ts.selfPerTrace("intra-sweep", "search"), why)
	setSpanMetric(r, "core.inter_stage_ms", ts.selfPerTrace("inter-stage", "search"), why)
	setSpanMetric(r, "core.warm_adapt_ms", ts.selfPerTrace("warm-adapt", "search"), why)
}

// setSearchLayers reports core/evalcache figures from search replies.
func setSearchLayers(r *result, rs []tuneReply) {
	var cands, pairs, pruned, aborted, unique []float64
	var hits, evals, candSum uint64
	var elapsed float64
	warm, searched := 0, 0
	for _, t := range rs {
		cands = append(cands, float64(t.Candidates))
		pairs = append(pairs, float64(t.SGPairs))
		pruned = append(pruned, float64(t.WarmPruned))
		aborted = append(aborted, float64(t.WarmAborted))
		unique = append(unique, float64(t.EvalCacheMisses))
		hits += t.EvalCacheHits
		evals += t.EvalCacheHits + t.EvalCacheMisses
		candSum += uint64(t.Candidates)
		elapsed += t.ElapsedMS / 1e3
		if t.WarmStarted {
			warm++
		}
		if t.searched() && t.Candidates > 0 {
			searched++
		}
	}
	n := len(rs)
	r.set("core.candidates", median(cands), "count", n)
	r.set("core.candidates_per_s", float64(candSum)/math.Max(elapsed, 1e-9), "1/s", n)
	r.set("core.sg_pairs", median(pairs), "count", n)
	r.set("core.pruned", median(pruned), "count", n)
	r.set("core.aborted_pairs", median(aborted), "count", n)
	r.set("evalcache.unique_evals", median(unique), "count", n)
	r.set("evalcache.hit_ratio", float64(hits)/float64(max(evals, 1)), "ratio", int(evals))
	r.set("evalcache.hit_ratio_base", float64(evals)/float64(max(n, 1)), "count", n)
	r.set("serve.searches_per_new_key", float64(searched)/float64(max(n, 1)), "count", n)
	r.set("serve.warm_start_ratio", float64(warm)/float64(max(n, 1)), "ratio", n)
	r.absent("runtime.alloc_mb_per_search", "MB",
		"serve-hot's searches run inside set-up, across the fleet's nodes; allocation per search is measured on tune-cold")
}

// setHitLayers reports the serving-path ratios of a measured phase.
func setHitLayers(r *result, st *opStats, tuneOps int) {
	r.set("serve.plan_cache_hit_ratio", float64(st.cached)/float64(max(tuneOps, 1)), "ratio", tuneOps)
	r.set("serve.store_hit_ratio", float64(st.fromStore)/float64(max(tuneOps, 1)), "ratio", tuneOps)
	all := st.ok + st.failed
	r.set("serve.rejected_ratio", float64(st.r429)/float64(max(all, 1)), "ratio", all)
	r.set("cluster.forward_ratio", float64(st.forwarded)/float64(max(all, 1)), "ratio", all)
	r.set("load.failed_ratio", float64(st.failed)/float64(max(all, 1)), "ratio", all)
}

// tracedOverhead is the median traced hit's latency over the median
// untraced hit's in the same traced phase, in percent.
func tracedOverhead(st *opStats) float64 {
	if len(st.tracedLat) == 0 || len(st.untracedLat) == 0 {
		return 0
	}
	return 100 * (median(st.tracedLat)/median(st.untracedLat) - 1)
}

// poolPlans lists the pool's plans for the layer timings.
func poolPlans(p *pool) []tunedPlan {
	var out []tunedPlan
	for _, k := range p.keys {
		if k.tuned.Plan != nil {
			out = append(out, tunedPlan{spec: k.spec, plan: k.tuned.Plan, predicted: k.tuned.Predicted})
		}
	}
	return out
}

// poolQuality is the pool plans' simulated throughput (geometric mean)
// and mean prediction error, from the set-up /simulate replies.
func poolQuality(p *pool) (tput, errPct float64, n int) {
	var tputs, errs []float64
	for _, k := range p.keys {
		if k.sim.IterTime <= 0 {
			continue
		}
		tputs = append(tputs, k.sim.Throughput)
		errs = append(errs, 100*math.Abs(k.tuned.Predicted-k.sim.IterTime)/k.sim.IterTime)
	}
	return geomean(tputs), mean(errs), len(tputs)
}
