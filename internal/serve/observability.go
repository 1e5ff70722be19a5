package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// This file is the serving layer's observability surface: the per-node
// trace ring at GET /debug/traces, the cluster event timeline at GET
// /cluster/events, Go runtime gauges on /metrics, and the request/trace
// identity every log line carries.

// logID renders a request's log identity: the ingress request id, plus
// the trace id when the request is sampled — so a grep for either id
// finds every line the request touched, across nodes.
func logID(ctx context.Context) string {
	rid := RequestIDFrom(ctx)
	if sp := trace.FromContext(ctx); sp != nil {
		return rid + " trace " + sp.TraceID()
	}
	return rid
}

// registerRuntimeGauges exposes Go runtime health on /metrics. Each
// gauge is sampled at scrape time (callbacks run outside the registry
// lock); ReadMemStats stops the world briefly, which is acceptable at
// scrape cadence, not on request paths.
func (s *Server) registerRuntimeGauges() {
	s.metrics.RegisterGauge("mist_go_goroutines", nil, func() float64 {
		return float64(runtime.NumGoroutine())
	})
	s.metrics.RegisterGauge("mist_go_gomaxprocs", nil, func() float64 {
		return float64(runtime.GOMAXPROCS(0))
	})
	s.metrics.RegisterGauge("mist_go_heap_inuse_bytes", nil, func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapInuse)
	})
	s.metrics.RegisterGauge("mist_go_gc_pause_total_seconds", nil, func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.PauseTotalNs) / 1e9
	})
	s.metrics.RegisterGauge("mist_analyzers", nil, func() float64 {
		entries, _ := s.analyzers.snapshot()
		return float64(entries)
	})
	s.metrics.RegisterGauge("mist_analyzer_evictions_total", nil, func() float64 {
		_, evicted := s.analyzers.snapshot()
		return float64(evicted)
	})
}

// tracedEndpoint reports whether local sampling may start a trace at
// this endpoint. Only real operations are sampled; cheap read endpoints
// (health, metrics, the debug surfaces themselves) would otherwise
// churn the trace ring. An inbound X-Mist-Trace header overrides this —
// the edge's sampling decision is honored everywhere.
func tracedEndpoint(endpoint string) bool {
	switch endpoint {
	case "/tune", "/simulate", "/jobs", "/jobs/{id}":
		return true
	}
	return false
}

// DebugTraces is the GET /debug/traces reply: this node's recorder
// counters and its retained trace portions, newest first.
type DebugTraces struct {
	Node   string            `json:"node,omitempty"`
	Stats  trace.Stats       `json:"stats"`
	Traces []trace.TraceData `json:"traces"`
}

// handleDebugTraces serves the trace ring. Filters: ?trace=<id>,
// ?request=<id>, ?minDurationMs=<float>, ?limit=<n>.
func (s *Server) handleDebugTraces(rw http.ResponseWriter, req *http.Request) {
	if s.trace == nil {
		writeError(rw, http.StatusNotFound, errors.New("tracing not enabled (see WithTrace)"))
		return
	}
	q := req.URL.Query()
	f := trace.Filter{TraceID: q.Get("trace"), RequestID: q.Get("request")}
	if v := q.Get("minDurationMs"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("bad minDurationMs %q", v))
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		f.Limit = n
	}
	writeJSON(rw, http.StatusOK, DebugTraces{
		Node:   s.trace.Node(),
		Stats:  s.trace.Stats(),
		Traces: s.trace.Traces(f),
	})
}

// ClusterEvents is the GET /cluster/events reply: this node's bounded
// cluster timeline (epoch adoptions, member health transitions,
// rebalance activity), oldest first. A poller resumes with
// ?since=<last seq>.
type ClusterEvents struct {
	Node   string          `json:"node,omitempty"`
	Events []cluster.Event `json:"events"`
}

func (s *Server) handleClusterEvents(rw http.ResponseWriter, req *http.Request) {
	if s.cluster == nil {
		writeError(rw, http.StatusNotFound, errors.New("cluster mode not enabled"))
		return
	}
	var since int64
	if v := req.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("bad since %q", v))
			return
		}
		since = n
	}
	writeJSON(rw, http.StatusOK, ClusterEvents{
		Node:   s.cluster.Self(),
		Events: s.cluster.Events(since),
	})
}
