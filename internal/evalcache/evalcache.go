// Package evalcache memoizes schedule.Analyzer evaluations behind a
// concurrency-safe, sharded store.
//
// It is no longer on any search path: the tuner and the serving layer
// price every candidate straight through the analyzer, which is faster
// than a lookup-and-store at the hit rates searches reach. The package
// is kept only because the mistperf benchmark's per-layer timings call
// evalcache.New(...).EvaluateBatch; delete it together with the
// benchmark's evalcache.* per-layer rows.
//
// A search prices some (shape, knobs) points more than once — middle
// pipeline stages with equal in-flight depth enumerate identical
// candidate grids, the uniform heuristic replicates one configuration
// across every stage, and heterogeneous device search re-sweeps the
// same meshes per stage — and the cache converts that repetition into
// lookups.
//
// Keys are *canonical*: two shapes that provably evaluate identically
// map to the same entry. The analyzer's result depends on the raw
// StageShape only through
//
//   - (B, DP, TP) and the ZeRO level — with ZeRO normalized to 0 when
//     DP == 1, where sharding is a no-op (the analyzer applies the same
//     normalization, and every collective over a group of one costs 0);
//   - HasPre / HasPost;
//   - whether the pipeline is deeper than one stage (boundary p2p);
//   - the 1F1B in-flight microbatch count min(GradAccum,
//     NumStages-StageIdx) clamped to >= 1, which is the only way
//     NumStages, StageIdx and GradAccum enter the stage model.
//
// Lookups are lock-free: canonical shapes and knob contents are interned
// to small integer ids, a point is the packed uint64 (shapeID, knobID),
// and each shard serves reads from an immutable map snapshot swapped in
// atomically (copy-on-write, sync.Map-style, but monomorphic — no
// interface boxing per entry). Writers stage new points in a small
// mutex-guarded dirty map that is promoted into the snapshot
// geometrically, so total copy work stays O(entries). The tuner's nested
// (S, G) × intra-stage worker fan-out therefore never serializes on the
// read path.
//
// Counter discipline: Hits and Misses are incremented only after the
// pricing they describe has succeeded. A batch whose underlying
// evaluator call errors contributes nothing — not the hits it would have
// served, not the misses it attempted — so on an error-free search the
// counters reconcile exactly with the candidates the caller priced.
//
// The cache is scoped to one analyzer configuration (model, sequence,
// cluster, interference fit, Serialize flag): callers must not share a
// Cache across evaluators with different contexts.
package evalcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/schedule"
)

// Evaluator is the pricing interface the cache wraps and implements;
// *schedule.Analyzer satisfies it.
type Evaluator interface {
	Evaluate(schedule.StageShape, schedule.Knobs) (schedule.Result, error)
	EvaluateBatch(schedule.StageShape, []schedule.Knobs) ([]schedule.Result, error)
}

// batchInto is the optional buffer-reusing batch interface
// (*schedule.Analyzer implements it); the cache prefers it for pricing
// misses so the underlying sweep allocates nothing per call.
type batchInto interface {
	EvaluateBatchInto(dst []schedule.Result, shape schedule.StageShape, ks []schedule.Knobs, sc *schedule.EvalScratch) ([]schedule.Result, error)
}

// Key is the canonical identity of one evaluation point. Comparable, so
// it can index the interning tables directly.
type Key struct {
	B, DP, TP, ZeRO int
	HasPre, HasPost bool
	Pipelined       bool // NumStages > 1: boundary p2p transfers engaged
	InFlight        int  // 1F1B in-flight microbatches at this stage
	Layers, Ckpt    int
	WO, GO, OO, AO  float64
}

// CanonicalKey derives the canonical cache key for one (shape, knobs)
// point. Shapes that differ only in trace-irrelevant ways (ZeRO level
// under DP=1; stage position / depth / accumulation combinations with
// the same in-flight count) collapse to the same key.
func CanonicalKey(s schedule.StageShape, k schedule.Knobs) Key {
	return shapeKey(s).withKnobs(k)
}

// shapeKey canonicalizes the shape-dependent key fields; batch pricing
// derives it once and stamps per-candidate knobs with withKnobs.
func shapeKey(s schedule.StageShape) Key {
	zero := s.ZeRO
	if s.DP == 1 {
		zero = 0
	}
	inFlight := s.NumStages - s.StageIdx
	if inFlight > s.GradAccum {
		inFlight = s.GradAccum
	}
	if inFlight < 1 {
		inFlight = 1
	}
	return Key{
		B: s.B, DP: s.DP, TP: s.TP, ZeRO: zero,
		HasPre: s.HasPre, HasPost: s.HasPost,
		Pipelined: s.NumStages > 1,
		InFlight:  inFlight,
	}
}

func (key Key) withKnobs(k schedule.Knobs) Key {
	key.Layers, key.Ckpt = k.Layers, k.Ckpt
	key.WO, key.GO, key.OO, key.AO = k.WO, k.GO, k.OO, k.AO
	return key
}

// knobKey isolates the knob-content fields of a Key, the identity the
// knob interning table is built on.
func knobKey(k schedule.Knobs) Key {
	return Key{}.withKnobs(k)
}

// KnobSet is an immutable, order-preserving batch of knobs prepared for
// interned pricing. The tuner builds one per distinct layer count per
// search (the knob grid depends only on the layer count) and reuses it
// across every (stage, shape) sweep, so the set can memoize its interned
// ids and skip all per-candidate key construction.
type KnobSet struct {
	knobs []schedule.Knobs
	// firstOf[i] is the position of the first entry with identical knob
	// content (== i when entry i is the set's first occurrence). In-set
	// duplicates are priced once and served as hits, mirroring the
	// duplicate handling of EvaluateBatch.
	firstOf []int32
	uniq    int

	// res memoizes the set's interned ids against the last cache that
	// resolved it. The memo lives on the (request-scoped) set, not the
	// (process-lifetime) cache, so a persistent cache retains no
	// per-request pointers and dies with nothing to evict; the ids die
	// with their set. Resolution is deterministic per cache (knobID
	// assigns each content one stable id), so a racing re-resolution
	// publishes an identical vector and last-write-wins is safe.
	res atomic.Pointer[setResolution]
}

// setResolution pairs an interned id vector with the cache whose
// interning tables it was resolved against.
type setResolution struct {
	cache *Cache
	ids   []uint32
}

// NewKnobSet copies ks into an immutable interning-ready set.
func NewKnobSet(ks []schedule.Knobs) *KnobSet {
	s := &KnobSet{
		knobs:   append([]schedule.Knobs(nil), ks...),
		firstOf: make([]int32, len(ks)),
	}
	seen := make(map[Key]int32, len(ks))
	for i, k := range s.knobs {
		kk := knobKey(k)
		if first, ok := seen[kk]; ok {
			s.firstOf[i] = first
			continue
		}
		seen[kk] = int32(i)
		s.firstOf[i] = int32(i)
		s.uniq++
	}
	return s
}

// Knobs returns the set's backing slice; callers must not mutate it.
func (s *KnobSet) Knobs() []schedule.Knobs { return s.knobs }

// Len reports the number of entries (including in-set duplicates).
func (s *KnobSet) Len() int { return len(s.knobs) }

// Scratch holds the reusable buffers of one pricing stream. One Scratch
// belongs to one goroutine at a time; the zero value is ready to use.
type Scratch struct {
	// Eval is the underlying analyzer's buffer set, exported so callers
	// bypassing the cache (NoCache benchmarking) can reuse the same
	// scratch against schedule.Analyzer directly.
	Eval schedule.EvalScratch

	missIdx   []int32
	missKnobs []schedule.Knobs
	missRes   []schedule.Result
	ids       []uint32
}

// numShards bounds write contention and promotion copy sizes under the
// tuner's nested worker pools; power of two so the shard index is a
// shift off the mixed key.
const (
	shardBits = 5
	numShards = 1 << shardBits
)

// shard is one copy-on-write stripe of the point store. Readers load the
// immutable read snapshot without synchronization; writers stage inserts
// in dirty under mu and promote a merged snapshot once dirty outgrows
// the geometric threshold.
type shard struct {
	read    atomic.Pointer[map[uint64]schedule.Result]
	amended atomic.Bool // dirty may hold keys missing from read
	mu      sync.Mutex
	dirty   map[uint64]schedule.Result
}

// Cache is a memoizing, concurrency-safe Evaluator decorator.
type Cache struct {
	ev     Evaluator
	shards [numShards]shard

	// Interning tables: canonical shape -> id and knob content -> id.
	// Read-mostly after warmup; the hot path resolves a whole KnobSet's
	// ids once and the set memoizes them (see KnobSet.res).
	intern   sync.RWMutex
	shapeIDs map[Key]uint32
	knobIDs  map[Key]uint32

	hits   atomic.Uint64
	misses atomic.Uint64
}

// New wraps an evaluator with a fresh cache.
func New(ev Evaluator) *Cache {
	c := &Cache{
		ev:       ev,
		shapeIDs: make(map[Key]uint32),
		knobIDs:  make(map[Key]uint32),
	}
	empty := make(map[uint64]schedule.Result)
	for i := range c.shards {
		c.shards[i].read.Store(&empty)
	}
	return c
}

// Backend exposes the wrapped evaluator. The serving layer's cache
// registry uses it to verify a persisted cache and the shared analyzer
// it hands out stay paired (a cache answers only for the evaluator
// configuration it was built over).
func (c *Cache) Backend() Evaluator { return c.ev }

// Stats is a point-in-time snapshot of the hit/miss counters.
type Stats struct {
	Hits, Misses uint64
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Len reports the number of distinct cached points.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		m := *sh.read.Load()
		n += len(m)
		for k := range sh.dirty {
			if _, ok := m[k]; !ok {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// shapeID interns a shape's canonical identity.
func (c *Cache) shapeID(s schedule.StageShape) uint32 {
	k := shapeKey(s)
	c.intern.RLock()
	id, ok := c.shapeIDs[k]
	c.intern.RUnlock()
	if ok {
		return id
	}
	c.intern.Lock()
	id, ok = c.shapeIDs[k]
	if !ok {
		id = uint32(len(c.shapeIDs))
		c.shapeIDs[k] = id
	}
	c.intern.Unlock()
	return id
}

// knobID interns a knob content. Callers on the hot path resolve whole
// sets via setIDs instead.
func (c *Cache) knobID(k schedule.Knobs) uint32 {
	kk := knobKey(k)
	c.intern.RLock()
	id, ok := c.knobIDs[kk]
	c.intern.RUnlock()
	if ok {
		return id
	}
	c.intern.Lock()
	id, ok = c.knobIDs[kk]
	if !ok {
		id = uint32(len(c.knobIDs))
		c.knobIDs[kk] = id
	}
	c.intern.Unlock()
	return id
}

// resolveIDs fills dst with the interned knob id of every set entry
// (duplicates resolve to their first occurrence's id).
func (c *Cache) resolveIDs(s *KnobSet, dst []uint32) []uint32 {
	if cap(dst) < len(s.knobs) {
		dst = make([]uint32, len(s.knobs))
	}
	dst = dst[:len(s.knobs)]
	for i, k := range s.knobs {
		if f := s.firstOf[i]; int(f) != i {
			dst[i] = dst[f]
			continue
		}
		dst[i] = c.knobID(k)
	}
	return dst
}

// setIDs returns the memoized interned ids of a KnobSet against this
// cache, resolving and publishing them onto the set on first use. A set
// alternating between caches (which no current caller does) would
// re-resolve on each switch — correct, just unmemoized.
func (c *Cache) setIDs(s *KnobSet) []uint32 {
	if r := s.res.Load(); r != nil && r.cache == c {
		return r.ids
	}
	ids := c.resolveIDs(s, nil)
	s.res.Store(&setResolution{cache: c, ids: ids})
	return ids
}

// pointKey packs an interned (shape, knob) pair into the store key.
func pointKey(shapeID, knobID uint32) uint64 {
	return uint64(shapeID)<<32 | uint64(knobID)
}

// shardFor mixes the packed key onto its stripe.
func (c *Cache) shardFor(k uint64) *shard {
	h := k * 0x9E3779B97F4A7C15 // Fibonacci hashing: high bits well mixed
	return &c.shards[h>>(64-shardBits)]
}

// lookup is the lock-free read path: the immutable snapshot first, the
// dirty map (under its shard lock) only while the shard is amended. The
// slow path re-checks the read snapshot under the lock — sync.Map's
// double-check — because a promotion racing between our snapshot load
// and the amended load moves the key from dirty into a new snapshot;
// without the re-check that window reads as a spurious miss and the
// point is silently re-priced.
func (c *Cache) lookup(k uint64) (schedule.Result, bool) {
	sh := c.shardFor(k)
	if r, ok := (*sh.read.Load())[k]; ok {
		return r, true
	}
	if !sh.amended.Load() {
		return schedule.Result{}, false
	}
	sh.mu.Lock()
	r, ok := (*sh.read.Load())[k]
	if !ok {
		r, ok = sh.dirty[k]
	}
	sh.mu.Unlock()
	return r, ok
}

// store inserts a priced point, promoting the dirty map into a fresh
// immutable snapshot once it outgrows the geometric threshold (total
// promotion copy work stays O(entries) over the cache's lifetime).
func (c *Cache) store(k uint64, r schedule.Result) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	if sh.dirty == nil {
		sh.dirty = make(map[uint64]schedule.Result, 64)
	}
	sh.dirty[k] = r
	sh.amended.Store(true)
	read := *sh.read.Load()
	if threshold := len(read); len(sh.dirty) >= max(64, threshold) {
		next := make(map[uint64]schedule.Result, len(read)+len(sh.dirty))
		for kk, vv := range read {
			next[kk] = vv
		}
		for kk, vv := range sh.dirty {
			next[kk] = vv
		}
		sh.read.Store(&next)
		sh.dirty = nil
		sh.amended.Store(false)
	}
	sh.mu.Unlock()
}

// Evaluate prices one candidate, consulting the cache first. Errors are
// not cached or counted: an invalid point re-queries the analyzer
// (cheap — it fails validation before any pricing).
func (c *Cache) Evaluate(shape schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	key := pointKey(c.shapeID(shape), c.knobID(k))
	if r, ok := c.lookup(key); ok {
		c.hits.Add(1)
		return r, nil
	}
	r, err := c.ev.Evaluate(shape, k)
	if err != nil {
		return schedule.Result{}, err
	}
	c.misses.Add(1)
	c.store(key, r)
	return r, nil
}

// EvaluateSet prices every entry of a prepared KnobSet under one shape,
// forwarding only the cache misses to the underlying evaluator in a
// single batch (so the analyzer's compiled-program sweep still amortizes
// across them). dst is reused when its capacity suffices and the
// returned slice aliases it; sc's buffers persist across calls. This is
// the tuner's hot path: zero allocations once dst and sc have grown.
func (c *Cache) EvaluateSet(shape schedule.StageShape, set *KnobSet, dst []schedule.Result, sc *Scratch) ([]schedule.Result, error) {
	return c.evaluateSet(shape, set, c.setIDs(set), dst, sc)
}

func (c *Cache) evaluateSet(shape schedule.StageShape, set *KnobSet, ids []uint32, dst []schedule.Result, sc *Scratch) ([]schedule.Result, error) {
	ks := set.knobs
	if cap(dst) < len(ks) {
		dst = make([]schedule.Result, len(ks))
	}
	results := dst[:len(ks)]
	base := c.shapeID(shape)
	sc.missIdx = sc.missIdx[:0]
	for i := range ks {
		if int(set.firstOf[i]) != i {
			continue // in-set duplicate: filled from its first occurrence below
		}
		if r, ok := c.lookup(pointKey(base, ids[i])); ok {
			results[i] = r
			continue
		}
		sc.missIdx = append(sc.missIdx, int32(i))
	}
	if len(sc.missIdx) > 0 {
		if cap(sc.missKnobs) < len(sc.missIdx) {
			sc.missKnobs = make([]schedule.Knobs, 0, len(ks))
		}
		sc.missKnobs = sc.missKnobs[:0]
		for _, i := range sc.missIdx {
			sc.missKnobs = append(sc.missKnobs, ks[i])
		}
		var priced []schedule.Result
		var err error
		if bi, ok := c.ev.(batchInto); ok {
			priced, err = bi.EvaluateBatchInto(sc.missRes, shape, sc.missKnobs, &sc.Eval)
		} else {
			priced, err = c.ev.EvaluateBatch(shape, sc.missKnobs)
		}
		if err != nil {
			return nil, err
		}
		sc.missRes = priced[:0]
		for j, i := range sc.missIdx {
			results[i] = priced[j]
			c.store(pointKey(base, ids[i]), priced[j])
		}
		c.misses.Add(uint64(len(sc.missIdx)))
	}
	for i := range ks {
		if f := set.firstOf[i]; int(f) != i {
			results[i] = results[f]
		}
	}
	c.hits.Add(uint64(len(ks) - len(sc.missIdx)))
	return results, nil
}

// EvaluateBatch prices many candidates under one shape. It is the
// compatibility form of EvaluateSet for ad-hoc knob slices; repeated
// batches should build a KnobSet once and use EvaluateSet.
func (c *Cache) EvaluateBatch(shape schedule.StageShape, ks []schedule.Knobs) ([]schedule.Result, error) {
	set := NewKnobSet(ks)
	var sc Scratch
	sc.ids = c.resolveIDs(set, sc.ids)
	return c.evaluateSet(shape, set, sc.ids, nil, &sc)
}
