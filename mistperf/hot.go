package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// sampler picks the requests a traced phase stamps with a trace id: at
// most one per period, and at most limit in all.
type sampler struct {
	mu     sync.Mutex
	period time.Duration
	next   time.Time
	n      int
	limit  int
}

func newSampler(phase time.Duration, limit int) *sampler {
	return &sampler{period: phase / time.Duration(limit), limit: limit}
}

func (s *sampler) take() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if s.n >= s.limit || now.Before(s.next) {
		return false
	}
	s.next = now.Add(s.period)
	s.n++
	return true
}

// hotPhase runs the serve-hot closed loop for d: hotClients callers
// take op after op from the seeded sequence (op i enters node i mod 3).
// Ops sampled by smp carry a trace id.
func hotPhase(ctx context.Context, f *fleet, p *pool, seed int64, z zipf, d time.Duration,
	next *atomic.Uint64, smp *sampler, rc *replyCache) (*opStats, time.Duration) {
	var wg sync.WaitGroup
	per := make([]*opStats, hotClients)
	start := time.Now()
	// Sample buffers are sized up front, so no multi-megabyte slice
	// grows inside the measured loop.
	capOps := int(d.Seconds() * 60000)
	for c := range per {
		st := &opStats{tuneLat: make([]float64, 0, capOps), simLat: make([]float64, 0, capOps/8)}
		per[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := next.Add(1) - 1
				rank, sim := hotOp(seed, i, z)
				idx := p.rank[rank]
				k := p.keys[idx]
				entry := int(i % fleetNodes)
				path, body := "/tune", k.tuneBody
				if sim {
					path, body = "/simulate", k.simBody
				}
				tid := ""
				if !sim && smp.take() {
					tid = traceID(seed, 1, i)
				}
				t0 := time.Now()
				code, resp := f.call(ctx, entry, http.MethodPost, path, body, tid)
				lat := ms(time.Since(t0))
				if entry != k.owner {
					st.forwarded++
				}
				if code != http.StatusOK {
					st.failed++
					if code == http.StatusTooManyRequests {
						st.r429++
					}
					st.problem(fmt.Sprintf("%s %s: %d", path, k.spec.label(), code))
					continue
				}
				st.ok++
				info := rc.check(p, idx, sim, resp)
				st.problem(info.problem)
				if sim {
					st.simLat = append(st.simLat, lat)
					continue
				}
				st.tuneLat = append(st.tuneLat, lat)
				if info.cached {
					st.cached++
				}
				if info.fromStore {
					st.fromStore++
				}
				if smp != nil {
					if tid != "" {
						st.tracedLat = append(st.tracedLat, lat)
					} else {
						st.untracedLat = append(st.untracedLat, lat)
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	all := &opStats{}
	for _, st := range per {
		all.merge(st)
	}
	return all, wall
}

func runServeHot(cfg runConfig, r *result) error {
	ctx := context.Background()
	p, f, err := setUpRepeated(ctx, cfg, r)
	if err != nil {
		return err
	}
	defer f.close()
	z := newZipf(len(p.keys), zipfS)
	d := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		d /= 2
	}
	rc := newReplyCache()
	sc := startScraper(ctx, f)
	var next atomic.Uint64
	st, wall := hotPhase(ctx, f, p, cfg.Seed, z, d, &next, nil, rc)
	var traced *opStats
	if cfg.Trace {
		traced, _ = hotPhase(ctx, f, p, cfg.Seed, z, d, &next, newSampler(d, tracedPerPhase), rc)
	}
	sc.finish()
	sc.scrape(ctx, f)

	r.Attempted = st.ok + st.failed
	r.Failed = st.failed
	if traced != nil {
		r.Attempted += traced.ok + traced.failed
		r.Failed += traced.failed
	}
	lats := append(append([]float64(nil), st.tuneLat...), st.simLat...)
	if len(lats) == 0 {
		return fmt.Errorf("no request succeeded: %v", st.problems)
	}
	r.set("ops_per_s", float64(st.ok)/wall.Seconds(), "1/s", st.ok)
	r.set("latency_ms_p50", quantile(lats, 0.5), "ms", len(lats))
	r.set("latency_ms_p99", quantile(lats, 0.99), "ms", len(lats))
	r.set("hit_latency_ms_p99", quantile(st.tuneLat, 0.99), "ms", len(st.tuneLat))
	r.set("miss_latency_ms_p50", median(p.searchLat), "ms", len(p.searchLat))
	r.Notes["miss_latency_ms_p50"] = "serve-hot measures no misses after set-up: this is the set-up searches of the pool, through the same cluster"
	r.Notes["simulate_share"] = float64(len(st.simLat)) / float64(len(lats))
	tput, perr, n := poolQuality(p)
	r.set("plan_throughput_sps", tput, "samples/s", n)
	r.set("pred_err_pct", perr, "%", n)
	problems := st.problems
	if traced != nil {
		problems = append(problems, traced.problems...)
	}
	r.gate("hot replies are served without a search, carry the pool's plan, and simulate within budget",
		len(problems) == 0, "%v", problems)
	// Cross-check single-flight with the fleet's own counter while
	// /metrics still exports it; the name may change, so absence only
	// skips the check.
	want := float64(len(p.searches) + p.rejected)
	if got, ok := sc.series("mist_tunes_run_total"); ok {
		r.gate("fleet search counter equals the set-up searches", got == want, "mist_tunes_run_total %v, want %v", got, want)
	} else {
		r.Notes["mist_tunes_run_total"] = "series absent from /metrics: counter cross-check skipped"
	}

	setHitLayers(r, st, len(st.tuneLat))
	setSearchLayers(r, p.searches)
	r.Notes["core_and_evalcache_source"] = "serve-hot runs no search after set-up: core.*, evalcache.*, serve.searches_per_new_key, serve.warm_start_ratio and the search-path spans (store-check, prepare, replication, core) describe the set-up searches"
	r.set("serve.metrics_scrape_ms", median(sc.times), "ms", len(sc.times))
	r.set("load.inflight_max", hotClients, "count", st.ok)

	if cfg.Trace {
		ts, dropped, err := harvestTraces(ctx, f)
		if err != nil {
			return err
		}
		setServeSpans(r, ts)
		r.set("trace.dropped", float64(dropped), "count", ts.traces())
		r.set("trace.overhead_pct", tracedOverhead(traced), "%", len(traced.tracedLat))
		if err := layerTimings(r, poolPlans(p), f.views[0]); err != nil {
			return err
		}
	}
	r.set("live_heap_mb", liveHeapMB(), "MB", 1)
	runtime.KeepAlive(f)
	return nil
}

// notMeasured records the packages no workload exercises, and why.
var notMeasured = map[string]string{
	"internal/milp":  "the default inter-stage solver is the DP; the MILP runs only in internal/experiments (BenchmarkMILPAssignment8x8 covers it)",
	"internal/jobs":  "no workload submits async jobs (BenchmarkBatchSubmit covers it)",
	"internal/slo":   "no SLO config is loaded (BenchmarkSLOEvaluate covers it)",
	"internal/pilot": "no autoscaling pilot runs (BenchmarkPilotEvaluate covers it)",
}
