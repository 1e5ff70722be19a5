// Package serve exposes the Mist auto-tuner and the discrete-event
// execution engine as a concurrent HTTP/JSON service — the multi-user
// serving layer of a production tuning system.
//
// Endpoints:
//
//	POST /tune       — tune a (workload, cluster, space) triple; responses
//	                   are memoized in a plan cache so repeated requests
//	                   (and concurrent duplicates, which coalesce onto one
//	                   in-flight search) return instantly.
//	POST /simulate   — execute a plan on the engine; the plan is either
//	                   inlined in the request or tuned on demand through
//	                   the same plan cache.
//	POST /jobs       — submit one tuning job or a batch asynchronously;
//	                   jobs run on a bounded priority worker pool.
//	GET  /jobs       — list jobs; GET /jobs/{id} — status and result;
//	DELETE /jobs/{id} — cancel (queued jobs immediately, running jobs via
//	                   their context).
//	GET  /healthz    — liveness probe.
//	GET  /stats      — request counters, plan-cache occupancy/evictions,
//	                   job-queue depth and worker utilization, plan-store
//	                   size and warm-start hit rate, per-endpoint latency
//	                   quantiles and status-code counts.
//	GET  /metrics    — Prometheus text exposition of the same counters
//	                   and latency histograms.
//
// The service degrades under load instead of hanging: every expensive
// synchronous endpoint class sits behind a bounded admission gate (at
// most MaxInflight executing, MaxQueue waiting; beyond that the request
// is refused immediately with 429 and a Retry-After hint), the async job
// queue is bounded the same way, and an optional per-request deadline is
// propagated through the tuner's context so abandoned searches stop
// burning CPU (504 on expiry). See Limits.
//
// With a plan store attached (WithStore), every tuned plan is durably
// written to disk and served back after a restart without re-searching;
// near-miss requests warm-start their search from the nearest stored
// neighbor (same model family, closest GPU count/batch), which prunes
// dominated regions early and never degrades plan quality.
//
// The handler is safe for arbitrary concurrency: the plan cache is
// mutex-guarded with per-key in-flight coalescing, and tuner runs share
// one calibrated, concurrency-safe analyzer per fingerprint (see
// evalreg.go), so a re-search of a known analyzer configuration skips
// calibration. That registry is bounded at a fixed entry count;
// least-recently-used fingerprints are dropped when it fills.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pilot"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/slo"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/trainsim"
)

// WorkloadSpec names a (workload, cluster, space) triple in wire form.
// It is the plan-cache key: two requests with the same spec share one
// tuned plan.
type WorkloadSpec struct {
	Model    string `json:"model"`
	Platform string `json:"platform"`      // "l4" (default) or "a100"
	GPUs     int    `json:"gpus"`          // total GPU count
	Batch    int    `json:"batch"`         // global batch size
	Seq      int    `json:"seq,omitempty"` // 0: platform default (2048 L4, 4096 A100)
	NoFlash  bool   `json:"noFlash,omitempty"`
	Space    string `json:"space,omitempty"` // mist|megatron|deepspeed|aceso|3d|uniform
}

// Hard spec ceilings: requests beyond them are certainly abusive or
// mistaken (the search cost grows with each), so they are refused as
// bad requests instead of admitted into an unbounded search.
const (
	maxSpecGPUs  = 4096
	maxSpecBatch = 1 << 16
	maxSpecSeq   = 1 << 16
)

// normalize fills defaults and returns the resolved workload pieces.
func (ws *WorkloadSpec) normalize() (plan.Workload, *hardware.Cluster, core.Space, error) {
	var zero plan.Workload
	cfg, err := model.ByName(ws.Model)
	if err != nil {
		return zero, nil, core.Space{}, err
	}
	if ws.GPUs > maxSpecGPUs {
		return zero, nil, core.Space{}, fmt.Errorf("gpus %d exceeds limit %d", ws.GPUs, maxSpecGPUs)
	}
	if ws.Batch > maxSpecBatch {
		return zero, nil, core.Space{}, fmt.Errorf("batch %d exceeds limit %d", ws.Batch, maxSpecBatch)
	}
	if ws.Seq > maxSpecSeq {
		return zero, nil, core.Space{}, fmt.Errorf("seq %d exceeds limit %d", ws.Seq, maxSpecSeq)
	}
	if ws.Platform == "" {
		ws.Platform = "l4"
	}
	nodes, perNode, err := hardware.MeshForGPUs(ws.GPUs)
	if err != nil {
		return zero, nil, core.Space{}, err
	}
	var cl *hardware.Cluster
	switch strings.ToLower(ws.Platform) {
	case "l4":
		cl = hardware.L4Cluster(nodes, perNode)
		if ws.Seq == 0 {
			ws.Seq = 2048
		}
	case "a100":
		cl = hardware.A100Cluster(nodes, perNode)
		if ws.Seq == 0 {
			ws.Seq = 4096
		}
	default:
		return zero, nil, core.Space{}, fmt.Errorf("unknown platform %q", ws.Platform)
	}
	if ws.Space == "" {
		ws.Space = "mist"
	}
	space, err := spaceByName(ws.Space)
	if err != nil {
		return zero, nil, core.Space{}, err
	}
	w := plan.Workload{Model: cfg, Seq: ws.Seq, Flash: !ws.NoFlash, GlobalBatch: ws.Batch}
	if err := w.Validate(); err != nil {
		return zero, nil, core.Space{}, err
	}
	return w, cl, space, nil
}

// fingerprint maps the spec onto the plan store's canonical identity;
// normalize must have run so defaults are resolved first.
func (ws *WorkloadSpec) fingerprint() store.Fingerprint {
	return store.Fingerprint{
		Model:    ws.Model,
		Platform: strings.ToLower(ws.Platform),
		GPUs:     ws.GPUs,
		Batch:    ws.Batch,
		Seq:      ws.Seq,
		Flash:    !ws.NoFlash,
		Space:    strings.ToLower(ws.Space),
	}
}

// key is the canonical plan-cache identity; normalize must have run so
// defaults are resolved before keying. It equals the plan store's index
// key, so the in-memory cache and the durable store agree about request
// identity.
func (ws *WorkloadSpec) key() string {
	return ws.fingerprint().Key()
}

// CanonicalKey resolves the spec's defaults and returns its canonical
// fingerprint key — the one identity shared by the plan cache, the
// durable store, and cluster ring ownership. The receiver is a copy;
// the caller's spec is left as written.
func (ws WorkloadSpec) CanonicalKey() (string, error) {
	if _, _, _, err := ws.normalize(); err != nil {
		return "", err
	}
	return ws.key(), nil
}

func spaceByName(name string) (core.Space, error) {
	switch strings.ToLower(name) {
	case "mist":
		return core.MistSpace(), nil
	case "megatron":
		return core.MegatronSpace(), nil
	case "deepspeed":
		return core.DeepSpeedSpace(), nil
	case "aceso":
		return core.AcesoSpace(), nil
	case "3d":
		return core.ThreeDSpace(), nil
	case "uniform":
		return core.UniformHeuristicSpace(), nil
	}
	return core.Space{}, fmt.Errorf("unknown search space %q", name)
}

// TuneRequest is the /tune body.
type TuneRequest struct {
	WorkloadSpec
}

// TuneResponse is the /tune reply.
type TuneResponse struct {
	Plan           *plan.Plan `json:"plan"`
	Predicted      float64    `json:"predictedIterTime"` // seconds
	PredThroughput float64    `json:"predictedThroughput"`
	Candidates     int        `json:"candidates"`
	SGPairs        int        `json:"sgPairs"`
	ElapsedMS      float64    `json:"elapsedMs"`

	// Pricing traffic of the search (see core.Result): no memo layer
	// answers pricings, so hits and the hit rate are always 0 and
	// misses counts the analyzer evaluations. The names are kept for
	// wire compatibility.
	EvalCacheHits uint64  `json:"evalCacheHits"`
	EvalCacheMiss uint64  `json:"evalCacheMisses"`
	EvalHitRate   float64 `json:"evalCacheHitRate"`

	// Cached reports that the plan came from the serving-layer plan
	// cache (including coalescing onto a concurrent identical request)
	// rather than a fresh tuner run.
	Cached bool `json:"cached"`

	// FromStore reports that the plan was served from the durable plan
	// store (a previous process tuned it) without running a search;
	// StoreVersion is the stored record's write generation.
	FromStore    bool `json:"fromStore,omitempty"`
	StoreVersion int  `json:"storeVersion,omitempty"`

	// Warm-start telemetry for fresh searches seeded from a stored
	// neighbor plan: the seed's objective became an incumbent bound that
	// pruned WarmPruned candidates and aborted WarmAbortedPairs
	// (pipeline depth, grad accum) pairs early. Warm starts only prune —
	// the returned plan is never worse than a cold search's.
	WarmStarted       bool    `json:"warmStarted,omitempty"`
	WarmSeedObjective float64 `json:"warmSeedObjective,omitempty"`
	WarmPruned        int     `json:"warmPrunedCandidates,omitempty"`
	WarmAbortedPairs  int     `json:"warmAbortedPairs,omitempty"`
}

// SimulateRequest is the /simulate body: a workload spec plus an
// optional explicit plan. Without a plan the service tunes one (through
// the plan cache) and executes it.
type SimulateRequest struct {
	WorkloadSpec
	Plan *plan.Plan `json:"plan,omitempty"`
}

// SimulateResponse is the /simulate reply.
type SimulateResponse struct {
	IterTime   float64   `json:"iterTime"`
	Throughput float64   `json:"throughput"`
	Bubble     float64   `json:"bubble"`
	PeakMem    []float64 `json:"peakMem"`
	BudgetByte float64   `json:"memoryBudget"`
	OOM        bool      `json:"oom"`

	// TunedPlan echoes the plan when the service tuned it on demand.
	TunedPlan *plan.Plan `json:"tunedPlan,omitempty"`
}

// Stats is the /stats reply.
type Stats struct {
	TuneRequests     uint64 `json:"tuneRequests"`
	SimulateRequests uint64 `json:"simulateRequests"`
	PlanCacheHits    uint64 `json:"planCacheHits"`
	TunesRun         uint64 `json:"tunesRun"`
	PlanCacheSize    int    `json:"planCacheSize"`

	// Plan-cache pressure: the configured capacity and how many
	// completed entries have been evicted to stay under it.
	PlanCacheCap       int    `json:"planCacheCap"`
	PlanCacheEvictions uint64 `json:"planCacheEvictions"`

	// Cross-request analyzer registry: live analyzer-config
	// fingerprints, and how many the entry bound has dropped.
	Analyzers         int    `json:"analyzers"`
	AnalyzerEvictions uint64 `json:"analyzerEvictions"`

	// Durable plan store (zero-valued when no store is attached):
	// indexed plans, exact-fingerprint hits served without a search,
	// searches seeded from a stored neighbor, and the fraction of
	// searches run that were warm-started.
	StoreSize        int     `json:"storeSize"`
	StoreHits        uint64  `json:"storeHits"`
	WarmStarts       uint64  `json:"warmStarts"`
	WarmStartHitRate float64 `json:"warmStartHitRate"`

	// Async job queue and worker pool.
	JobsSubmitted     uint64  `json:"jobsSubmitted"`
	JobsDeduped       uint64  `json:"jobsDeduped"`
	JobsDone          uint64  `json:"jobsDone"`
	JobsFailed        uint64  `json:"jobsFailed"`
	JobsCanceled      uint64  `json:"jobsCanceled"`
	QueueDepth        int     `json:"queueDepth"`
	JobWorkers        int     `json:"jobWorkers"`
	BusyWorkers       int     `json:"busyWorkers"`
	WorkerUtilization float64 `json:"workerUtilization"`

	// Backpressure and the HTTP surface: total 429s issued (admission
	// gates and the job-queue bound) and per-endpoint request counts,
	// status codes, and latency quantiles from the metrics registry.
	Rejected429 uint64          `json:"rejected429"`
	HTTP        []EndpointStats `json:"http,omitempty"`

	// Sharded-tier traffic (zero-valued without a cluster): requests
	// forwarded to the owning peer, forward transport failures, plan
	// records replicated out, replication failures, and requests served
	// locally because no replica was reachable.
	ClusterForwards          uint64 `json:"clusterForwards,omitempty"`
	ClusterForwardErrors     uint64 `json:"clusterForwardErrors,omitempty"`
	ClusterReplications      uint64 `json:"clusterReplications,omitempty"`
	ClusterReplicationErrors uint64 `json:"clusterReplicationErrors,omitempty"`
	ClusterLocalFallbacks    uint64 `json:"clusterLocalFallbacks,omitempty"`

	// Elastic membership: the adopted view epoch, anti-entropy repair
	// traffic (records pushed to / pulled from peers, local records
	// released after handoff), and search-suppressing peer record
	// fetches on store misses.
	ClusterEpoch            int64  `json:"clusterEpoch,omitempty"`
	ClusterRebalancePushed  uint64 `json:"clusterRebalancePushed,omitempty"`
	ClusterRebalancePulled  uint64 `json:"clusterRebalancePulled,omitempty"`
	ClusterRebalanceDropped uint64 `json:"clusterRebalanceDropped,omitempty"`
	ClusterRebalanceErrors  uint64 `json:"clusterRebalanceErrors,omitempty"`
	ClusterRecordFetches    uint64 `json:"clusterRecordFetches,omitempty"`
	ClusterRecordFetchHits  uint64 `json:"clusterRecordFetchHits,omitempty"`
}

// planEntry is one plan-cache slot; ready closes when the tuner run
// completes, so concurrent requests for the same spec coalesce.
type planEntry struct {
	ready chan struct{}
	resp  *TuneResponse
	an    *schedule.Analyzer // calibrated analyzer, reused by /simulate
	err   error
}

// defaultCacheCap bounds the plan cache: specs are client-controlled
// (seq is an arbitrary int), so an unbounded map is a memory-growth
// vector under varied or abusive traffic. Eviction is arbitrary among
// completed entries — a re-tune on a cold spec is correct, just slower
// (and free when the evicted plan is still in the durable store).
const defaultCacheCap = 1024

// defaultJobWorkers bounds the async pool: each tuner run already fans
// out across GOMAXPROCS, so a narrow pool keeps batch submissions from
// oversubscribing the process.
const defaultJobWorkers = 2

// Server is the tuning service. Create with New, mount via Handler, or
// run a full HTTP server lifecycle with ListenAndServe. Call Close when
// done to stop the job workers (ListenAndServe does so on shutdown).
type Server struct {
	mu    sync.Mutex
	plans map[string]*planEntry

	cacheCap   int
	store      *store.Store
	jobs       *jobs.Manager
	jobWorkers int
	analyzers  *analyzerRegistry

	cluster *cluster.Cluster
	logFn   func(format string, args ...any)

	traceOpt *trace.Options
	trace    *trace.Recorder

	limits       Limits
	metrics      *metrics.Registry
	tuneGate     *gate
	simulateGate *gate

	// SLO engine wiring (see slo_http.go): the declarative spec, the
	// built engine, and the background tick loop's lifecycle.
	sloCfg    *slo.Config
	sloClock  slo.Clock
	sloManual bool
	sloEngine *slo.Engine
	sloCancel context.CancelFunc
	sloWG     sync.WaitGroup

	// Pilot controller wiring (see pilot_http.go): the autoscaling
	// policy, the controller, its tick loop's lifecycle, and the
	// configured warm-standby pool.
	pilotCfg    *pilot.Config
	pilotClock  pilot.Clock
	pilotManual bool
	pilot       *pilot.Pilot
	pilotCancel context.CancelFunc
	pilotWG     sync.WaitGroup
	standbys    []cluster.Member

	tuneRequests     atomic.Uint64
	simulateRequests atomic.Uint64
	planCacheHits    atomic.Uint64
	tunesRun         atomic.Uint64
	evictions        atomic.Uint64
	storeHits        atomic.Uint64
	warmStarts       atomic.Uint64
	rejected429      atomic.Uint64

	forwards          atomic.Uint64
	forwardErrors     atomic.Uint64
	replications      atomic.Uint64
	replicationErrors atomic.Uint64
	localFallbacks    atomic.Uint64

	// Elastic-membership machinery: the background rebalancer loop, the
	// per-epoch repaired-record memo, and the peer record-fetch
	// counters (see rebalance.go / elastic_http.go).
	rbKick           chan struct{}
	rbMu             sync.Mutex // guards rbCancel
	rbCancel         context.CancelFunc
	rbRunMu          sync.Mutex // serializes RebalanceOnce passes
	repairMu         sync.Mutex // guards repairedAt, lastPull, lastPullDone
	repairedAt       map[string]ringID
	pulledPeers      map[string]ringID // peer id -> ring last fully pulled; only touched under rbRunMu
	lastPull         ringID
	lastPullDone     bool
	rebalancePushed  atomic.Uint64
	rebalancePulled  atomic.Uint64
	rebalanceDropped atomic.Uint64
	rebalanceErrors  atomic.Uint64
	recordFetches    atomic.Uint64
	recordFetchHits  atomic.Uint64
}

// Option configures a Server.
type Option func(*Server)

// WithStore attaches a durable plan store: tuned plans are written
// through, exact fingerprints are served from it without re-searching,
// and near-miss searches warm-start from the nearest stored neighbor.
func WithStore(st *store.Store) Option {
	return func(s *Server) { s.store = st }
}

// WithCacheCap overrides the in-memory plan-cache capacity (entries;
// values < 1 keep the default).
func WithCacheCap(n int) Option {
	return func(s *Server) {
		if n >= 1 {
			s.cacheCap = n
		}
	}
}

// WithJobWorkers sets the async job pool width (values < 1 keep the
// default).
func WithJobWorkers(n int) Option {
	return func(s *Server) {
		if n >= 1 {
			s.jobWorkers = n
		}
	}
}

// WithLimits sets the backpressure contract (zero fields keep their
// defaults; see Limits).
func WithLimits(l Limits) Option {
	return func(s *Server) { s.limits = l }
}

// WithCluster attaches this node's view of the sharded tier: requests
// for fingerprints owned by a peer are transparently forwarded, plans
// tuned here are write-through replicated to the fingerprint's other
// replicas, and GET /cluster exposes the topology. The cluster's
// health-prober lifecycle (Start/Stop) stays with the caller.
func WithCluster(cl *cluster.Cluster) Option {
	return func(s *Server) { s.cluster = cl }
}

// WithLog installs a request/forwarding logger (log.Printf-shaped);
// every line carries the ingress request id (and the trace id when the
// request is sampled). Default: no logging.
func WithLog(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logFn = logf }
}

// WithTrace enables request tracing: a per-node recorder collects
// context-propagated spans into a bounded ring served at GET
// /debug/traces, and trace context travels across forwarded hops on
// X-Mist-Trace/X-Mist-Span. The recorder is built inside New (one per
// server, even when the same option list configures a whole
// LocalCluster); a zero Node label defaults to the cluster node id.
func WithTrace(opt trace.Options) Option {
	return func(s *Server) { s.traceOpt = &opt }
}

// New builds a service.
func New(opts ...Option) *Server {
	s := &Server{
		plans:      map[string]*planEntry{},
		cacheCap:   defaultCacheCap,
		jobWorkers: defaultJobWorkers,
		metrics:    metrics.NewRegistry(),
		rbKick:     make(chan struct{}, 1),
		repairedAt: map[string]ringID{},
	}
	// lastPullDone starts false ("never pulled"): the first repair pass
	// always pulls, which is how a node restarted with an empty store
	// (or booted via -join) refills itself without waiting for peers to
	// push.
	for _, o := range opts {
		o(s)
	}
	s.limits = s.limits.withDefaults()
	s.analyzers = newAnalyzerRegistry(maxAnalyzers)
	s.tuneGate = newGate("/tune", s.limits)
	s.simulateGate = newGate("/simulate", s.limits)
	// The job queue shares the admission bound; the manager treats 0 as
	// unbounded, so the tightest expressible bound is one queued job.
	qc := s.limits.MaxQueue
	if qc < 1 {
		qc = 1
	}
	s.jobs = jobs.NewManager(s.jobWorkers, qc)
	if s.traceOpt != nil {
		opt := *s.traceOpt
		if opt.Node == "" && s.cluster != nil {
			opt.Node = s.cluster.Self()
		}
		s.trace = trace.NewRecorder(opt)
	}
	s.registerRuntimeGauges()
	s.registerBuildInfoGauge()
	s.initSLO()
	if s.store != nil && s.cluster != nil {
		// Write-through replication: every locally tuned plan lands on
		// the fingerprint's other replicas before the response returns.
		s.store.SetOnPut(s.replicateRecord)
	}
	if s.cluster != nil {
		// Every adopted membership change immediately kicks a repair
		// pass (the background loop must be started for it to run).
		s.cluster.SetOnViewChange(func(cluster.View) { s.KickRebalance() })
	}
	// After initSLO and the cluster hooks: the controller reads the SLO
	// tick cache and actuates through the cluster.
	s.initPilot()
	return s
}

// Close stops the job workers (canceling queued and running jobs), the
// background rebalancer, and the SLO and pilot tick loops. The plan
// store needs no teardown: every Put is already durable.
func (s *Server) Close() {
	s.StopRebalancer()
	s.stopPilot()
	s.stopSLO()
	s.jobs.Close()
}

// Store exposes the attached plan store (nil without one).
func (s *Server) Store() *store.Store { return s.store }

// Metrics exposes the request-metrics registry (the /metrics source);
// load harnesses use it to reconcile server-side totals against their
// own counts.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// TraceRecorder exposes the per-node trace recorder (nil without
// WithTrace); load harnesses audit its counters after a run.
func (s *Server) TraceRecorder() *trace.Recorder { return s.trace }

// evictOneLocked drops an arbitrary completed plan entry; in-flight
// entries are kept so coalesced waiters stay attached. Call with mu
// held.
func (s *Server) evictOneLocked() {
	for k, e := range s.plans {
		select {
		case <-e.ready:
			delete(s.plans, k)
			s.evictions.Add(1)
			return
		default:
		}
	}
}

// Handler mounts the service routes. Expensive synchronous endpoints
// run behind their admission gates; every route is instrumented with a
// stable endpoint label (path parameters collapse to one series).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/tune", s.wrap("/tune", s.tuneGate, s.handleTune))
	mux.HandleFunc("/simulate", s.wrap("/simulate", s.simulateGate, s.handleSimulate))
	mux.HandleFunc("/healthz", s.wrap("/healthz", nil, s.handleHealthz))
	mux.HandleFunc("/stats", s.wrap("/stats", nil, s.handleStats))
	mux.HandleFunc("GET /metrics", s.wrap("/metrics", nil, s.handleMetrics))
	mux.HandleFunc("POST /jobs", s.wrap("/jobs", nil, s.handleJobsSubmit))
	mux.HandleFunc("GET /jobs", s.wrap("/jobs", nil, s.handleJobsList))
	mux.HandleFunc("GET /jobs/{id}", s.wrap("/jobs/{id}", nil, s.handleJobGet))
	mux.HandleFunc("DELETE /jobs/{id}", s.wrap("/jobs/{id}", nil, s.handleJobCancel))
	mux.HandleFunc("GET /cluster", s.wrap("/cluster", nil, s.handleClusterInfo))
	mux.HandleFunc("POST /cluster/replicate", s.wrap("/cluster/replicate", nil, s.handleReplicate))
	mux.HandleFunc("POST /cluster/join", s.wrap("/cluster/join", nil, s.handleClusterJoin))
	mux.HandleFunc("POST /cluster/drain", s.wrap("/cluster/drain", nil, s.handleClusterDrain))
	mux.HandleFunc("GET /cluster/view", s.wrap("/cluster/view", nil, s.handleClusterViewGet))
	mux.HandleFunc("POST /cluster/view", s.wrap("/cluster/view", nil, s.handleClusterViewPost))
	mux.HandleFunc("POST /cluster/fetch", s.wrap("/cluster/fetch", nil, s.handleClusterFetch))
	mux.HandleFunc("GET /cluster/records", s.wrap("/cluster/records", nil, s.handleClusterRecords))
	mux.HandleFunc("GET /cluster/events", s.wrap("/cluster/events", nil, s.handleClusterEvents))
	mux.HandleFunc("GET /cluster/health", s.wrap("/cluster/health", nil, s.handleClusterHealth))
	mux.HandleFunc("GET /slo", s.wrap("/slo", nil, s.handleSLO))
	mux.HandleFunc("GET /pilot", s.wrap("/pilot", nil, s.handlePilot))
	mux.HandleFunc("GET /debug/traces", s.wrap("/debug/traces", nil, s.handleDebugTraces))
	return mux
}

// tuneCtx resolves a spec through the plan cache under a context,
// running the tuner at most once per distinct spec. The returned
// response is a private copy with Cached set for this caller. Cancellation aborts a search this
// call started; coalesced waiters on that search then see the error and
// the failed entry is dropped, so a later request simply retries.
func (s *Server) tuneCtx(ctx context.Context, ws WorkloadSpec) (*TuneResponse, error) {
	w, cl, space, err := ws.normalize()
	if err != nil {
		return nil, &badRequestError{err}
	}
	key := ws.key()

	s.mu.Lock()
	for {
		e, ok := s.plans[key]
		if !ok {
			break
		}
		s.mu.Unlock()
		s.planCacheHits.Add(1)
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			// A coalesced search killed by another caller's cancellation
			// is not this caller's failure: the entry is already deleted,
			// so retry with a fresh search instead of surfacing 500.
			if ctx.Err() == nil &&
				(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
				s.mu.Lock()
				continue
			}
			return nil, e.err
		}
		resp := *e.resp
		resp.Cached = true
		return &resp, nil
	}
	e := &planEntry{ready: make(chan struct{})}
	if len(s.plans) >= s.cacheCap {
		s.evictOneLocked()
	}
	s.plans[key] = e
	s.mu.Unlock()

	e.resp, e.an, e.err = s.runTune(ctx, ws, w, cl, space)
	if e.err != nil {
		// Do not cache failures: a later identical request retries.
		s.mu.Lock()
		delete(s.plans, key)
		s.mu.Unlock()
	}
	close(e.ready)
	if e.err != nil {
		return nil, e.err
	}
	resp := *e.resp
	return &resp, nil
}

// responseFromRecord renders a stored plan record as the /tune reply
// it answers for — the one shape shared by local store hits and
// peer-fetched records, so the two no-search paths can never diverge.
func responseFromRecord(rec store.Record) *TuneResponse {
	return &TuneResponse{
		Plan:           rec.Plan,
		Predicted:      rec.Predicted,
		PredThroughput: rec.PredThroughput,
		FromStore:      true,
		StoreVersion:   rec.Version,
	}
}

// runTune answers a plan-cache miss: from the durable store when the
// exact fingerprint was tuned by any earlier process, otherwise by a
// fresh search — warm-started from the nearest stored neighbor when one
// exists — whose result is then written through to the store.
func (s *Server) runTune(ctx context.Context, ws WorkloadSpec, w plan.Workload, cl *hardware.Cluster, space core.Space) (*TuneResponse, *schedule.Analyzer, error) {
	fp := ws.fingerprint()
	if s.store != nil {
		// The store-check span covers the local lookup plus the peer
		// fetch sweep; its ctx stays local so the search span that may
		// follow is a sibling, not a child.
		sctx, ssp := trace.StartSpan(ctx, "store-check")
		if rec, ok := s.store.Get(fp); ok {
			ssp.Annotate("outcome", "local-hit")
			ssp.End()
			s.storeHits.Add(1)
			return responseFromRecord(rec), nil, nil
		}
		if s.cluster != nil {
			// Elastic single-flight: before ever searching, ask the fleet
			// whether someone already holds this fingerprint. During a
			// membership transition a key's new owner sees a local miss
			// for a record that lives at its previous replicas; a round
			// of cheap peer lookups keeps "one search per fingerprint"
			// true across every join/drain/kill, at a cost that is noise
			// next to one tuner run.
			if rec, ok := s.fetchRecordFromPeers(sctx, fp); ok {
				ssp.Annotate("outcome", "peer-hit")
				ssp.End()
				return responseFromRecord(rec), nil, nil
			}
		}
		ssp.Annotate("outcome", "miss")
		ssp.End()
	}
	s.tunesRun.Add(1)
	// The prepare span covers tuner construction (operator DB +
	// interference fit — real milliseconds, skipped entirely when the
	// fingerprint's analyzer is already in the analyzer registry) and
	// the warm-start neighbor lookup; without it the gap between
	// store-check and search would be unaccounted trace time.
	_, psp := trace.StartSpan(ctx, "prepare")
	an, reused, err := s.analyzers.acquire(ws, w, cl, space)
	if err != nil {
		psp.Annotate("error", err.Error())
		psp.End()
		return nil, nil, &badRequestError{err}
	}
	psp.Annotate("analyzerReused", reused)
	tn, err := core.NewShared(w, cl, an, space)
	if err != nil {
		psp.Annotate("error", err.Error())
		psp.End()
		return nil, nil, err
	}
	if s.store != nil {
		if nb, ok := s.store.Nearest(fp); ok {
			tn.Warm = nb.Plan
			psp.Annotate("warmNeighbor", true)
		}
	}
	psp.End()
	tctx, tsp := trace.StartSpan(ctx, "search")
	res, err := tn.TuneContext(tctx)
	if err != nil {
		tsp.Annotate("error", err.Error())
		tsp.End()
		return nil, nil, err
	}
	tsp.Annotate("candidates", res.Candidates)
	tsp.Annotate("sgPairs", res.SGPairs)
	tsp.Annotate("warmStarted", res.WarmStarted)
	tsp.End()
	if res.WarmStarted {
		s.warmStarts.Add(1)
	}
	resp := &TuneResponse{
		Plan:              res.Plan,
		Predicted:         res.Predicted,
		PredThroughput:    res.PredThroughput,
		Candidates:        res.Candidates,
		SGPairs:           res.SGPairs,
		ElapsedMS:         float64(res.Elapsed) / float64(time.Millisecond),
		EvalCacheHits:     res.EvalCacheHits,
		EvalCacheMiss:     res.EvalCacheMisses,
		EvalHitRate:       res.CacheHitRate(),
		WarmStarted:       res.WarmStarted,
		WarmSeedObjective: res.WarmSeedObjective,
		WarmPruned:        res.WarmPruned,
		WarmAbortedPairs:  res.WarmAbortedPairs,
	}
	if s.store != nil {
		// Best-effort write-through: a full disk must not fail the
		// request — the plan is still correct and cached in memory. The
		// request context rides into the OnPut replication hook so the
		// replication round joins this request's trace.
		if rec, err := s.store.PutCtx(ctx, store.Record{
			Fingerprint:    fp,
			Plan:           res.Plan,
			Predicted:      res.Predicted,
			PredThroughput: res.PredThroughput,
		}); err == nil {
			resp.StoreVersion = rec.Version
		}
	}
	return resp, tn.An, nil
}

// analyzerFor returns a calibrated analyzer for a spec, reusing the one
// attached to the spec's plan-cache entry when present and falling back
// to the analyzer registry's shared analyzer (which calibrates at most
// once per fingerprint while the entry lives). Building one is the expensive part of
// /simulate (operator DB + interference fit), so repeated simulation
// traffic must not pay it per request. The wait on an in-flight entry
// is bounded by ctx so an inline-plan /simulate honors its request
// deadline instead of parking behind a slow search.
func (s *Server) analyzerFor(ctx context.Context, ws WorkloadSpec, w plan.Workload, cl *hardware.Cluster, space core.Space) (*schedule.Analyzer, error) {
	s.mu.Lock()
	e, ok := s.plans[ws.key()]
	s.mu.Unlock()
	if ok {
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err == nil && e.an != nil {
			return e.an, nil
		}
	}
	an, _, err := s.analyzers.acquire(ws, w, cl, space)
	if err != nil {
		return nil, &badRequestError{err}
	}
	return an, nil
}

func (s *Server) handleTune(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	s.tuneRequests.Add(1)
	// The body is read up front (not streamed into the decoder) because
	// a non-owner must replay it verbatim to the owning peer.
	body, err := io.ReadAll(req.Body)
	if err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var tr TuneRequest
	if err := json.Unmarshal(body, &tr); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if s.cluster != nil && !forwarded(req) {
		spec := tr.WorkloadSpec
		if _, _, _, err := spec.normalize(); err != nil {
			writeError(rw, http.StatusBadRequest, err)
			return
		}
		if s.proxyKeyed(rw, req, spec.key(), body) {
			return
		}
	}
	// The request context carries the per-request deadline (see wrap)
	// and client disconnects; both propagate into the running search.
	resp, err := s.tuneCtx(req.Context(), tr.WorkloadSpec)
	if err != nil {
		writeError(rw, statusFor(err), err)
		return
	}
	writeJSON(rw, http.StatusOK, resp)
}

func (s *Server) handleSimulate(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	s.simulateRequests.Add(1)
	body, err := io.ReadAll(req.Body)
	if err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var sr SimulateRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	w, cl, space, err := sr.WorkloadSpec.normalize()
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	// Forward to the fingerprint's owner (plan cache and calibrated
	// analyzer live there), inline plan included.
	if s.proxyKeyed(rw, req, sr.WorkloadSpec.key(), body) {
		return
	}
	p := sr.Plan
	var tuned *plan.Plan
	if p == nil {
		tresp, err := s.tuneCtx(req.Context(), sr.WorkloadSpec)
		if err != nil {
			writeError(rw, statusFor(err), err)
			return
		}
		p = tresp.Plan
		tuned = tresp.Plan
	}
	if err := p.Validate(w); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("invalid plan: %w", err))
		return
	}
	an, err := s.analyzerFor(req.Context(), sr.WorkloadSpec, w, cl, space)
	if err != nil {
		writeError(rw, statusFor(err), err)
		return
	}
	m, err := trainsim.New(w, cl, an).Measure(p)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, err)
		return
	}
	writeJSON(rw, http.StatusOK, &SimulateResponse{
		IterTime:   m.IterTime,
		Throughput: m.Throughput,
		Bubble:     m.Bubble,
		PeakMem:    m.PeakMem,
		BudgetByte: cl.MemoryBudget(),
		OOM:        m.OOM(cl.MemoryBudget()),
		TunedPlan:  tuned,
	})
}

func (s *Server) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	if s.cluster != nil {
		// The epoch and membership fingerprint piggyback on every probe
		// reply: peers compare them to their own and reconcile views
		// (behind on epoch, or diverged at the same epoch) — membership
		// anti-entropy on the existing probe cadence, no extra
		// round-trips.
		writeJSON(rw, http.StatusOK, map[string]any{
			"ok":     true,
			"epoch":  s.cluster.Epoch(),
			"viewFp": fmt.Sprintf("%016x", s.cluster.ViewFingerprint()),
		})
		return
	}
	writeJSON(rw, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleStats(rw http.ResponseWriter, req *http.Request) {
	writeJSON(rw, http.StatusOK, s.Stats())
}

// ListenAndServe runs the service at addr until ctx is canceled, then
// shuts down gracefully, draining in-flight requests for up to grace and
// stopping the job workers.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		s.Close()
		return err // bind failure or unexpected server exit
	case <-ctx.Done():
	}
	// The serve context is already done here; the grace period needs a
	// root ancestor or Shutdown would return before draining anything.
	//mistlint:ignore ctxflow graceful drain runs after the serve context is canceled
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	s.Close()
	return err
}

// Stats snapshots the service counters, including the per-endpoint
// HTTP latency summaries.
func (s *Server) Stats() Stats {
	st := s.scalarStats()
	st.HTTP = s.httpStats()
	return st
}

// scalarStats is Stats without the HTTP fold — the cheap subset that
// /metrics reads for its gauge lines.
func (s *Server) scalarStats() Stats {
	s.mu.Lock()
	size := len(s.plans)
	s.mu.Unlock()
	st := Stats{
		TuneRequests:       s.tuneRequests.Load(),
		SimulateRequests:   s.simulateRequests.Load(),
		PlanCacheHits:      s.planCacheHits.Load(),
		TunesRun:           s.tunesRun.Load(),
		PlanCacheSize:      size,
		PlanCacheCap:       s.cacheCap,
		PlanCacheEvictions: s.evictions.Load(),
		StoreHits:          s.storeHits.Load(),
		WarmStarts:         s.warmStarts.Load(),
	}
	if s.store != nil {
		st.StoreSize = s.store.Len()
	}
	st.Analyzers, st.AnalyzerEvictions = s.analyzers.snapshot()
	if runs := st.TunesRun; runs > 0 {
		st.WarmStartHitRate = float64(st.WarmStarts) / float64(runs)
	}
	js := s.jobs.Stats()
	st.JobsSubmitted = js.Submitted
	st.JobsDeduped = js.Deduped
	st.JobsDone = js.Done
	st.JobsFailed = js.Failed
	st.JobsCanceled = js.Canceled
	st.QueueDepth = js.QueueDepth
	st.JobWorkers = js.Workers
	st.BusyWorkers = js.Busy
	if js.Workers > 0 {
		st.WorkerUtilization = float64(js.Busy) / float64(js.Workers)
	}
	st.Rejected429 = s.rejected429.Load()
	st.ClusterForwards = s.forwards.Load()
	st.ClusterForwardErrors = s.forwardErrors.Load()
	st.ClusterReplications = s.replications.Load()
	st.ClusterReplicationErrors = s.replicationErrors.Load()
	st.ClusterLocalFallbacks = s.localFallbacks.Load()
	if s.cluster != nil {
		st.ClusterEpoch = s.cluster.Epoch()
	}
	st.ClusterRebalancePushed = s.rebalancePushed.Load()
	st.ClusterRebalancePulled = s.rebalancePulled.Load()
	st.ClusterRebalanceDropped = s.rebalanceDropped.Load()
	st.ClusterRebalanceErrors = s.rebalanceErrors.Load()
	st.ClusterRecordFetches = s.recordFetches.Load()
	st.ClusterRecordFetchHits = s.recordFetchHits.Load()
	return st
}

// badRequestError marks client-side failures (unknown model, bad shape).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func statusFor(err error) int {
	var bad *badRequestError
	var over *overloadError
	var remote *remoteStatusError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.As(err, &remote):
		// A proxied peer already classified the failure; relay its code.
		return remote.status
	case errors.As(err, &over), errors.Is(err, jobs.ErrQueueFull):
		// Backpressure: the admission gate or the job queue is full.
		// Degrade promptly with a retry hint instead of hanging.
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline expired mid-search.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the code is a formality it won't read.
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrNoFeasiblePlan):
		// The search space genuinely contains no plan under the memory
		// budget: the request was well-formed but unsatisfiable.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// The backpressure contract: every 429/503 carries a hint for
		// when to come back.
		after := time.Second
		var over *overloadError
		if errors.As(err, &over) && over.retryAfter > 0 {
			after = over.retryAfter
		}
		rw.Header().Set("Retry-After", retryAfterSeconds(after))
	}
	writeJSON(rw, status, map[string]string{"error": err.Error()})
}
