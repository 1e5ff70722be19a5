// Package trace is the repo's zero-dependency, allocation-light span
// recorder: context-propagated spans with ids, parent links, phase
// tags, and nanosecond timings, collected into a bounded per-node ring
// of completed traces served at GET /debug/traces.
//
// Design constraints, in priority order:
//
//  1. The disabled path is near-free. A nil *Recorder and a nil *Span
//     are valid no-op receivers, and StartSpan on a context with no
//     active span returns (ctx, nil) without allocating — so
//     instrumentation can sit permanently on the hot search path
//     (BenchmarkTraceOverhead pins the cost, and the bench-regression
//     gate on BenchmarkTuneCold pins the end-to-end effect).
//  2. One logical request is ONE trace across nodes. The trace id and
//     the current span id travel on the X-Mist-Trace / X-Mist-Span
//     headers next to X-Mist-Request-Id; each node records its local
//     portion (a TraceData) and portions are merged by trace id at
//     query time. A portion whose spans include a parentless span is a
//     true ingress root; a portion whose local root carries a parent
//     id is the continuation of a hop from another node.
//  3. Nothing is lost silently. Every span start/end and every
//     publication or ring eviction is counted in Stats, so a harness
//     can assert "no op finished without a root span, no span was left
//     unfinished" from counters alone — ring evictions cannot fake it.
//
// A trace's local portion publishes to the ring when its last open
// local span ends. Spans started after that (an async job span that
// outlives the HTTP response, say) accumulate into a fresh portion
// under the same trace id and publish the same way, so late work is
// appended, not dropped.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Wire headers carrying trace context across forwarded hops, alongside
// the existing X-Mist-Request-Id.
const (
	// HeaderTrace carries the 16-hex-digit trace id. Its presence on an
	// inbound request forces the receiving node to record, regardless of
	// its own sampling rate — sampling is decided once, at the edge.
	HeaderTrace = "X-Mist-Trace"
	// HeaderSpan carries the sender's current span id, which becomes the
	// parent of the receiving node's local root span.
	HeaderSpan = "X-Mist-Span"
)

// Options configures a Recorder.
type Options struct {
	// Node labels this recorder's trace portions (usually the cluster
	// node id; may be empty for single-node deployments).
	Node string
	// Capacity bounds the completed-trace ring (default 256).
	Capacity int
	// SampleEvery samples every Nth locally-originated trace: 1 records
	// everything, 0 (the default) records only traces forced by an
	// inbound X-Mist-Trace header — i.e. the edge or the client decides.
	SampleEvery int
}

// Stats is the recorder's counter snapshot. The invariants a harness
// audits: OpenSpans drains to zero once traffic stops (no span leaked
// unfinished), and RootsPublished covers every sampled ingress op (no
// op completed without a root span).
type Stats struct {
	SpansStarted    uint64 `json:"spansStarted"`
	SpansEnded      uint64 `json:"spansEnded"`
	OpenSpans       int64  `json:"openSpans"`
	TracesPublished uint64 `json:"tracesPublished"`
	RootsPublished  uint64 `json:"rootsPublished"`
	TracesDropped   uint64 `json:"tracesDropped"`
}

// SpanData is one finished span on the wire (and in the ring).
type SpanData struct {
	ID          string         `json:"id"`
	Parent      string         `json:"parent,omitempty"`
	Name        string         `json:"name"`
	StartUnixNs int64          `json:"startUnixNs"`
	DurationNs  int64          `json:"durationNs"`
	Attrs       map[string]any `json:"attrs,omitempty"`
}

// TraceData is one node's published portion of a trace.
type TraceData struct {
	TraceID     string     `json:"traceId"`
	RequestID   string     `json:"requestId,omitempty"`
	Node        string     `json:"node,omitempty"`
	Root        bool       `json:"root"`
	StartUnixNs int64      `json:"startUnixNs"`
	DurationNs  int64      `json:"durationNs"`
	Spans       []SpanData `json:"spans"`
}

// Recorder samples, assembles, and retains traces for one node. The
// zero value is not usable; construct with NewRecorder. A nil
// *Recorder is a valid always-off recorder.
type Recorder struct {
	node        string
	capacity    int
	sampleEvery uint64

	idState atomic.Uint64 // splitmix64 walk for span/trace ids
	opSeq   atomic.Uint64 // local-origin sampling counter

	spansStarted    atomic.Uint64
	spansEnded      atomic.Uint64
	tracesPublished atomic.Uint64
	rootsPublished  atomic.Uint64
	tracesDropped   atomic.Uint64

	mu   sync.Mutex
	ring []TraceData // newest at ring[(next-1+cap)%cap]
	next int
	size int
}

// NewRecorder builds a recorder; see Options for defaults.
func NewRecorder(opt Options) *Recorder {
	if opt.Capacity <= 0 {
		opt.Capacity = 256
	}
	r := &Recorder{
		node:        opt.Node,
		capacity:    opt.Capacity,
		sampleEvery: uint64(max(opt.SampleEvery, 0)),
		ring:        make([]TraceData, opt.Capacity),
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		r.idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		// Ids only need uniqueness within a deployment's retention
		// window; a fixed seed plus the counter walk still provides it
		// within one process.
		r.idState.Store(0x9e3779b97f4a7c15)
	}
	return r
}

// Node returns the recorder's node label ("" for a nil recorder).
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// splitmix64 is the id generator's output stage: one atomic add walks
// the state, the mix avalanches it — cheap, lock-free, and unique per
// call within a process.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const hexDigits = "0123456789abcdef"

func hex16(v uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

func (r *Recorder) newID() string {
	return hex16(splitmix64(r.idState.Add(0x9e3779b97f4a7c15)))
}

// traceState is the shared mutable core of one trace's local portion:
// finished spans accumulate until the open count drains to zero, then
// the batch publishes to the ring.
type traceState struct {
	rec       *Recorder
	traceID   string
	requestID string

	mu    sync.Mutex
	open  int
	spans []SpanData
}

// Span is one in-flight span. All methods are nil-safe no-ops, so
// instrumented code never branches on whether tracing is enabled.
type Span struct {
	st    *traceState
	start time.Time
	data  SpanData
	amu   sync.Mutex // guards data.Attrs against concurrent Annotate
	ended atomic.Bool
}

type spanKey struct{}

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithSpan returns ctx with sp active (ctx unchanged for nil sp).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// StartSpan starts a child of the context's active span. With no
// active span it returns (ctx, nil) without allocating — the disabled
// fast path every instrumented hot path rides.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.st.startSpan(name, parent.data.ID)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

func (st *traceState) startSpan(name, parentID string) *Span {
	sp := &Span{
		st:    st,
		start: time.Now(),
		data: SpanData{
			ID:     st.rec.newID(),
			Parent: parentID,
			Name:   name,
		},
	}
	sp.data.StartUnixNs = sp.start.UnixNano()
	st.rec.spansStarted.Add(1)
	st.mu.Lock()
	st.open++
	st.mu.Unlock()
	return sp
}

// TraceID returns the span's trace id ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.st.traceID
}

// ID returns the span id ("" for nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.data.ID
}

// Annotate attaches a key/value attribute. Call before End; values
// must be JSON-encodable (strings and numbers, in practice).
func (s *Span) Annotate(key string, value any) {
	if s == nil || s.ended.Load() {
		return
	}
	s.amu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any, 4)
	}
	s.data.Attrs[key] = value
	s.amu.Unlock()
}

// End finishes the span (idempotent). When it was the trace's last
// open local span, the accumulated portion publishes to the ring.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.data.DurationNs = time.Since(s.start).Nanoseconds()
	st := s.st
	st.rec.spansEnded.Add(1)
	var batch []SpanData
	st.mu.Lock()
	st.spans = append(st.spans, s.data)
	st.open--
	if st.open == 0 {
		batch = st.spans
		st.spans = nil
	}
	st.mu.Unlock()
	if batch != nil {
		st.rec.publish(st, batch)
	}
}

// publish folds one drained span batch into a TraceData and appends it
// to the ring, evicting the oldest entry when full.
func (r *Recorder) publish(st *traceState, spans []SpanData) {
	td := TraceData{
		TraceID:   st.traceID,
		RequestID: st.requestID,
		Node:      r.node,
		Spans:     spans,
	}
	var maxEnd int64
	for i, sp := range spans {
		if sp.Parent == "" {
			td.Root = true
		}
		if i == 0 || sp.StartUnixNs < td.StartUnixNs {
			td.StartUnixNs = sp.StartUnixNs
		}
		if end := sp.StartUnixNs + sp.DurationNs; end > maxEnd {
			maxEnd = end
		}
	}
	td.DurationNs = maxEnd - td.StartUnixNs
	r.tracesPublished.Add(1)
	if td.Root {
		r.rootsPublished.Add(1)
	}
	r.mu.Lock()
	if r.size == r.capacity {
		r.tracesDropped.Add(1)
	} else {
		r.size++
	}
	r.ring[r.next] = td
	r.next = (r.next + 1) % r.capacity
	r.mu.Unlock()
}

// StartTrace begins a locally-originated trace, subject to sampling.
// Returns (ctx, nil) when this request is not sampled or the recorder
// is nil/disabled.
func (r *Recorder) StartTrace(ctx context.Context, name, requestID string) (context.Context, *Span) {
	if r == nil || r.sampleEvery == 0 {
		return ctx, nil
	}
	if r.opSeq.Add(1)%r.sampleEvery != 0 {
		return ctx, nil
	}
	return r.root(ctx, name, r.newID(), "", requestID)
}

// ContinueTrace adopts trace context arriving on the wire: the local
// root span joins traceID under parentSpan. Always sampled — the
// upstream already decided. An empty traceID starts nothing.
func (r *Recorder) ContinueTrace(ctx context.Context, name, traceID, parentSpan, requestID string) (context.Context, *Span) {
	if r == nil || traceID == "" {
		return ctx, nil
	}
	return r.root(ctx, name, traceID, parentSpan, requestID)
}

func (r *Recorder) root(ctx context.Context, name, traceID, parentSpan, requestID string) (context.Context, *Span) {
	st := &traceState{rec: r, traceID: traceID, requestID: requestID}
	sp := st.startSpan(name, parentSpan)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Inject stamps the context's active trace onto outbound headers; a
// context with no active span leaves the headers untouched.
func Inject(ctx context.Context, h http.Header) {
	sp := FromContext(ctx)
	if sp == nil {
		return
	}
	h.Set(HeaderTrace, sp.st.traceID)
	h.Set(HeaderSpan, sp.data.ID)
}

// Stats snapshots the recorder's counters (zero value for nil).
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	started := r.spansStarted.Load()
	ended := r.spansEnded.Load()
	return Stats{
		SpansStarted:    started,
		SpansEnded:      ended,
		OpenSpans:       int64(started) - int64(ended),
		TracesPublished: r.tracesPublished.Load(),
		RootsPublished:  r.rootsPublished.Load(),
		TracesDropped:   r.tracesDropped.Load(),
	}
}

// Filter selects traces from the ring; zero values match everything.
type Filter struct {
	// TraceID / RequestID select one logical request's portions.
	TraceID   string
	RequestID string
	// MinDuration keeps only portions at least this long — the
	// slow-trace capture knob.
	MinDuration time.Duration
	// Limit caps the result count (0: no cap).
	Limit int
}

// Traces returns matching retained trace portions, newest first.
func (r *Recorder) Traces(f Filter) []TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceData, 0, r.size)
	for i := 0; i < r.size; i++ {
		td := r.ring[(r.next-1-i+r.capacity+r.capacity)%r.capacity]
		if f.TraceID != "" && td.TraceID != f.TraceID {
			continue
		}
		if f.RequestID != "" && td.RequestID != f.RequestID {
			continue
		}
		if f.MinDuration > 0 && td.DurationNs < f.MinDuration.Nanoseconds() {
			continue
		}
		out = append(out, td)
		if f.Limit > 0 && len(out) == f.Limit {
			break
		}
	}
	return out
}
