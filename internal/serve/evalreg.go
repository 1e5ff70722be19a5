package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/schedule"
)

// This file is the cross-request analyzer registry. Calibrating an
// analyzer (operator database plus the interference fit) costs real
// milliseconds, and an analyzer's compiled stage programs warm up over
// its first searches; neither depends on the request, only on the
// analyzer configuration. The registry keeps one calibrated analyzer
// per analyzer-config fingerprint, shared by every search and /simulate
// of that fingerprint, so a re-search (after plan-store eviction, or for
// a different global batch over the same model/platform) skips the fit
// and starts with warm programs.
//
// The fingerprint space is user-controlled (Seq, GPUs), so the registry
// is bounded by entry count: past maxAnalyzers entries the
// least-recently-used fingerprint is dropped, on the /simulate path as
// well as after searches. A dropped fingerprint simply recalibrates on
// its next request, exactly like the first request of a process.

// maxAnalyzers bounds the registry's entries.
const maxAnalyzers = 1024

// evalKey is the analyzer-config fingerprint: everything the analyzer's
// answers depend on, and nothing more. The global batch is deliberately
// absent — shapes carry their own microbatch size — so workloads that
// differ only in batch share one analyzer. The search space collapses to
// its Serialize flag for the same reason: spaces restrict which points
// the tuner asks about, not what any point costs.
func evalKey(ws WorkloadSpec, space core.Space) string {
	return fmt.Sprintf("%s|%s|%d|%d|flash=%v|serialize=%v",
		strings.ToLower(ws.Model), strings.ToLower(ws.Platform),
		ws.GPUs, ws.Seq, !ws.NoFlash, !space.OverlapAware)
}

// analyzerEntry is one registry slot. ready closes when calibration
// finishes, so concurrent first requests for a fingerprint build the
// analyzer once and everyone else waits (calibration is milliseconds,
// bounded by the interference fit).
type analyzerEntry struct {
	ready    chan struct{}
	an       *schedule.Analyzer
	err      error
	lastUsed atomic.Int64 // registry sequence number, not wall time
}

type analyzerRegistry struct {
	capEntries int

	mu      sync.Mutex
	entries map[string]*analyzerEntry

	seq       atomic.Int64
	evictions atomic.Uint64 // entries dropped by the bound
}

func newAnalyzerRegistry(capEntries int) *analyzerRegistry {
	return &analyzerRegistry{capEntries: capEntries, entries: map[string]*analyzerEntry{}}
}

// acquire returns the shared analyzer for a normalized spec, calibrating
// it on first use, and then enforces the entry bound. reused reports
// whether the entry predates this call.
func (r *analyzerRegistry) acquire(ws WorkloadSpec, w plan.Workload, cl *hardware.Cluster, space core.Space) (an *schedule.Analyzer, reused bool, err error) {
	key := evalKey(ws, space)
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok {
		e = &analyzerEntry{ready: make(chan struct{})}
		e.lastUsed.Store(r.seq.Add(1))
		r.entries[key] = e
		r.evictLocked(key)
		r.mu.Unlock()
		e.an, e.err = core.CalibratedAnalyzer(w, cl, space)
		close(e.ready)
		if e.err != nil {
			// Failed builds are not cached: drop the slot so a later
			// (possibly corrected) request retries.
			r.mu.Lock()
			if r.entries[key] == e {
				delete(r.entries, key)
			}
			r.mu.Unlock()
			return nil, false, e.err
		}
		return e.an, false, nil
	}
	r.mu.Unlock()
	<-e.ready
	if e.err != nil {
		return nil, false, e.err
	}
	e.lastUsed.Store(r.seq.Add(1))
	return e.an, true, nil
}

// evictLocked drops least-recently-used entries until the registry fits
// its bound. keep names the entry the caller just inserted; it is never
// the victim. Entries still calibrating are evictable: their waiters
// already hold the entry and still get its analyzer.
func (r *analyzerRegistry) evictLocked(keep string) {
	for len(r.entries) > r.capEntries {
		victim, oldest := "", int64(0)
		for k, e := range r.entries {
			if k == keep {
				continue
			}
			if lu := e.lastUsed.Load(); victim == "" || lu < oldest {
				victim, oldest = k, lu
			}
		}
		if victim == "" {
			return // only the protected entry remains
		}
		delete(r.entries, victim)
		r.evictions.Add(1)
	}
}

// snapshot reports the registry gauges: live entries (including any
// still calibrating) and the cumulative eviction count.
func (r *analyzerRegistry) snapshot() (entries int, evictions uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries), r.evictions.Load()
}
