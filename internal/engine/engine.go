// Package engine is the concurrent query-serving layer between the TC-Tree
// index (internal/tctree) and the HTTP front end (internal/server). It turns
// the single-threaded breadth-first walk of tctree.Query into a serving
// engine fit for the "data warehouse of maximal pattern trusses" of
// Section 6 of the paper:
//
//   - sharding: the TC-Tree is partitioned by top-level item into independent
//     shards (subtrees). A query (q, α_q) only touches shards whose root item
//     is in q — every other shard provably cannot contribute an answer,
//     because each node's pattern starts with its shard's root item — and a
//     bounded worker pool traverses the relevant shards in parallel, merging
//     the per-shard answers in deterministic shard order;
//   - lazy loading: NewLazy serves straight from an on-disk index
//     (tctree.ShardedIndex). A shard's file is mapped on the first query that
//     touches it, once per file generation, and fully re-validated (checksum
//     and structure) on every load; a resident shard is evictable under a
//     configurable budget; an applied delta replaces exactly the affected
//     shards and invalidates exactly the cached answers they could have
//     changed. New serves an index built in-process (tctree.BuildIndex)
//     through the same engine: its shards are the same bytes, which simply
//     start, and stay, on the heap;
//   - caching: a bounded, concurrency-safe LRU result cache keyed by the
//     canonicalized query (q ∩ indexed items, α_q), with hit, miss and
//     eviction counters;
//   - batch and top-k execution: QueryBatchContext answers many queries in one
//     call and TopKWithResultContext ranks the retrieved theme communities by
//     cohesion then size.
//
// An Engine is safe for concurrent use; resident tree data is read-only.
package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/par"
	"themecomm/internal/tctree"
	"themecomm/internal/trace"
	"themecomm/internal/truss"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the number of shard traversals running concurrently.
	// Zero or negative means GOMAXPROCS.
	Workers int
	// CacheSize is the maximum number of query results kept in the LRU
	// result cache. Zero or negative disables caching. Federation members use
	// SharedCache; this private arm stays because cmd/tcload pins it.
	CacheSize int
	// MaxResidentShards is the memory budget for file-backed shards: the
	// number of them kept open at once. When a load pushes the resident count
	// past the budget, the least recently used ones are evicted (queries
	// still holding an evicted view finish on their snapshot; the next touch
	// reopens it from disk). Zero or negative means unlimited. Heap shards
	// (every shard of an engine New opens over an in-process index, and
	// rebuilt shards awaiting a checkpoint) have no file to come back from:
	// never evicted, not counted.
	// cmd/tcload pins it; the one byte budget waits for that.
	MaxResidentShards int
	// MaxResidentBytes is the byte-based residency budget, enforced
	// alongside MaxResidentShards (either bound triggers LRU eviction): the
	// summed payload size of the shards in memory; pinned heap shards count,
	// and file-backed ones make room. Zero or negative means unlimited.
	MaxResidentBytes int64
	// SharedCache, when non-nil, replaces the engine's private result cache
	// with a cache shared between engines (a federation of networks): keys
	// are prefixed with CacheNamespace so tenants never collide, while
	// capacity, LRU order and counters are global. CacheSize is ignored.
	SharedCache *ResultCache
	// CacheNamespace is the engine's tenant name: its key prefix in a shared
	// cache — it must be unique per engine sharing the cache (a federation
	// uses the network name) — and the network label of every observation the
	// Recorder receives. Without SharedCache it only labels observations.
	CacheNamespace string
	// SharedResidency, when non-nil, enrolls the engine in a residency group
	// shared between engines: the group's budget bounds the file-backed
	// resident shards of every member together, and eviction is globally
	// least-recently-used. MaxResidentShards and MaxResidentBytes are
	// ignored.
	SharedResidency *ResidencyGroup
	// Recorder, when non-nil, receives one trace.QueryObservation per query —
	// outcome, plan→execute→merge stage timings and a lazy plan-detail hook.
	// The engine never imports a metrics implementation; whatever observes it
	// is injected here (the server wires in an obs.Observer, tests record
	// into slices, and a learned-cost planner could tap the same stream).
	// Nil costs the hot path nothing.
	Recorder trace.Recorder
}

// errShardRemoved poisons a shard struct that left the table, so stragglers
// holding the old pointer (a load in flight across the swap) cannot load it
// back into memory.
var errShardRemoved = errors.New("engine: shard replaced or removed by an index update")

// shardTable is an immutable snapshot of the engine's shard set. The engine
// publishes it through an atomic pointer so that readers (queries, stats, the
// residency evictor) see a consistent table without locking, while index
// updates (replaceShardsLocked) install a new table in one store — the
// in-memory analogue of the on-disk index's single manifest swap.
type shardTable struct {
	// shards are the per-top-level-item partitions, ordered by ascending
	// root item.
	shards []*shard
	// index maps a top-level item to its position in shards.
	index map[itemset.Item]int
	// items is the sorted set of all indexed top-level items; because the
	// TC-Tree is a set-enumeration tree, every item of every indexed pattern
	// appears at level 1, so q ∩ items is a lossless canonicalization of any
	// query pattern.
	items itemset.Itemset
}

// lookup returns the shard of a top-level item.
func (t *shardTable) lookup(item itemset.Item) (*shard, bool) {
	i, ok := t.index[item]
	if !ok {
		return nil, false
	}
	return t.shards[i], true
}

// Engine answers theme-community queries from a sharded TC-Tree.
type Engine struct {
	// idx is the on-disk index file-backed shards are opened from and
	// updates are committed to; nil for an engine over a tree built
	// in-process (New), whose shards all live on the heap.
	idx *tctree.ShardedIndex
	// builtMaxDepth is the MaxDepth bound the served index was built with
	// (0 = unbounded); incremental maintenance refuses bounded indexes.
	builtMaxDepth int
	// table is the current shard set (copy-on-write; see shardTable).
	table atomic.Pointer[shardTable]

	// updateMu serializes index swaps against in-flight queries: every query
	// holds the read side for its whole execution, and an update holds the
	// write side across the in-memory swap and the cache invalidation (a
	// checkpoint across its manifest commit and swap-back) — so a query's
	// answer is always entirely pre-swap or entirely post-swap, never a mix of
	// shards from both sides.
	updateMu sync.RWMutex
	// applyMu serializes whole updates and checkpoints: the network mutation,
	// the subtree rebuilds and the checkpoint's file writes happen outside
	// updateMu (queries keep flowing), so they must queue here.
	applyMu sync.Mutex
	// pendingAffected (guarded by applyMu) carries the affected set of a
	// delta whose rebuild failed: the network is already mutated, so the next
	// update must rebuild those shards too or the index would silently
	// diverge from the network forever.
	pendingAffected itemset.Itemset
	// dirty (guarded by applyMu) maps each item whose in-memory shard has
	// run ahead of the on-disk index — installed by ApplyDeltaInMemory, not
	// yet checkpointed — to the bytes the table serves it from (nil = shard
	// removed). See Checkpoint.
	dirty map[itemset.Item]*tctree.EncodedShard
	// epoch counts index swaps (applied deltas). Queries capture it before
	// executing and the result cache refuses inserts whose epoch is stale,
	// so an answer computed against a replaced shard can never be cached
	// after the invalidation purge ran.
	epoch atomic.Uint64

	workers int
	// sem bounds concurrent shard traversals across all in-flight queries.
	sem chan struct{}
	// batchSem bounds the per-query coordinators of QueryBatchContext. It is
	// distinct from sem: coordinators never hold a traversal slot, so the
	// two pools cannot deadlock each other.
	batchSem chan struct{}

	// cache is the result cache (nil when caching is disabled); cacheNS is
	// the engine's key namespace, non-empty only when the cache is shared
	// between engines; sharedCache marks a cache owned by a federation
	// rather than this engine.
	cache       *lruCache
	cacheNS     string
	sharedCache bool

	// visitAll makes the planner scan every relevant shard, skipping none:
	// the reference execution the skip-soundness tests compare against.
	// Only tests set it.
	visitAll bool

	// res is the engine's residency accounting — budget, LRU clock and
	// eviction — either private to this engine or shared with other engines
	// of a federation; sharedRes marks the shared case.
	res       *ResidencyGroup
	sharedRes bool

	// recorder receives per-query observations; nil when unobserved.
	recorder trace.Recorder

	queries          atomic.Uint64
	batches          atomic.Uint64
	topKs            atomic.Uint64
	explains         atomic.Uint64
	deltas           atomic.Uint64
	lazyLoads        atomic.Uint64
	evictions        atomic.Uint64
	skipped          atomic.Uint64
	skippedCatalogue atomic.Uint64
	streams          atomic.Uint64
	shortCircuited   atomic.Uint64
	nodesRecomputed  atomic.Uint64
	nodesReused      atomic.Uint64
	edgesPeeled      atomic.Uint64
	edgesCarried     atomic.Uint64
}

// New returns an Engine over an index built in-process (tctree.BuildIndex):
// every shard is served from its bytes on the heap. Nothing is persisted;
// ApplyDeltaInMemory replaces shards in memory only.
func New(idx *tctree.Index, opts Options) (*Engine, error) {
	if idx == nil {
		return nil, fmt.Errorf("engine: nil index")
	}
	shards := make([]*shard, len(idx.Shards))
	for i, enc := range idx.Shards {
		var err error
		if shards[i], err = heapShard(enc); err != nil {
			return nil, err
		}
	}
	return newEngine(nil, idx.BuiltMaxDepth, shards, opts), nil
}

// NewLazy returns an Engine serving straight from an on-disk index. No shard
// data is read until a query touches the shard: the first touch maps and
// checksum-verifies the shard file (concurrent first touches share one
// load), and resident shards are evicted least recently used first whenever
// the count exceeds opts.MaxResidentShards; a touch after an eviction
// verifies the kept mapping again. Only the federation and
// cmd/tcload, which pins it, call it.
func NewLazy(idx *tctree.ShardedIndex, opts Options) (*Engine, error) {
	if idx == nil {
		return nil, fmt.Errorf("engine: nil sharded index")
	}
	m := idx.Manifest()
	shards := make([]*shard, 0, len(m.Shards))
	for _, entry := range m.Shards {
		shards = append(shards, newShard(entry, idx, nil))
	}
	return newEngine(idx, m.BuiltMaxDepth, shards, opts), nil
}

// newShard is the one shard constructor: the catalogue — statistics and
// bloom filter — comes from the shard's manifest entry, decoded once here
// rather than per plan. With heap nil the shard is file-backed: it loads its
// view from the entry's file in idx on first touch and may be evicted; the
// struct owns the file's mapping, so a reload after an eviction re-validates
// the mapped bytes against the entry instead of mapping the file anew.
// Otherwise heap is the view — bytes an update or an in-process build
// encoded, which no file holds (yet) — fixed at construction, never evicted.
func newShard(entry tctree.ShardEntry, idx *tctree.ShardedIndex, heap *tctree.BinShard) *shard {
	item := itemset.Item(entry.Item)
	bloom, _ := entry.DecodeBloom()
	s := &shard{
		item:     item,
		view:     heap,
		once:     new(sync.Once),
		nodes:    entry.Nodes,
		depth:    entry.Depth,
		maxAlpha: entry.MaxAlpha,
		bloom:    bloom,
	}
	if heap == nil {
		f := tctree.NewShardFile(filepath.Join(idx.Dir(), entry.File))
		s.load = func() (*tctree.BinShard, error) { return f.Load(entry) }
	}
	return s
}

// heapShard opens encoded bytes — validated like a file's — as a heap shard.
func heapShard(enc *tctree.EncodedShard) (*shard, error) {
	view, err := enc.Open()
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d: %w", enc.Entry.Item, err)
	}
	return newShard(enc.Entry, nil, view), nil
}

// newEngine is the one construction behind New and NewLazy: an engine is a
// table of shards, and the two differ only in where the shards' views come
// from (the heap, or files of idx).
func newEngine(idx *tctree.ShardedIndex, builtMaxDepth int, shards []*shard, opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		idx:           idx,
		builtMaxDepth: builtMaxDepth,
		workers:       workers,
		sem:           make(chan struct{}, workers),
		batchSem:      make(chan struct{}, workers),
		recorder:      opts.Recorder,
	}
	e.table.Store(newShardTable(shards))
	// The namespace doubles as the tenant name on observations, so it is
	// kept even without a shared cache; a private cache prefixes its keys
	// with it consistently, which is harmless.
	e.cacheNS = opts.CacheNamespace
	switch {
	case opts.SharedCache != nil:
		e.cache = opts.SharedCache.c
		e.sharedCache = true
	case opts.CacheSize > 0:
		e.cache = newLRUCache(opts.CacheSize)
	}
	if opts.SharedResidency != nil {
		e.res = opts.SharedResidency
		e.sharedRes = true
	} else {
		e.res = NewResidencyGroupBytes(opts.MaxResidentShards, opts.MaxResidentBytes)
	}
	// Enroll in the residency group only once the shard table is built: a
	// shared group's evictor may scan members from other tenants' goroutines
	// the moment the engine is added.
	e.res.add(e)
	return e
}

// NumShards returns the number of shards (indexed top-level items).
func (e *Engine) NumShards() int { return len(e.table.Load().shards) }

// IndexEpoch returns the number of index swaps (applied deltas) the engine
// has performed. Cache inserts are gated on it: a query that executed
// against a since-swapped shard can never insert its stale answer.
func (e *Engine) IndexEpoch() uint64 { return e.epoch.Load() }

// Workers returns the shard-traversal parallelism.
func (e *Engine) Workers() int { return e.workers }

// Lazy reports whether the engine loads shards from disk on demand.
func (e *Engine) Lazy() bool { return e.idx != nil }

// Format returns where the engine's shards come from: tctree.FormatTCBIN
// for an on-disk index, "memory" for a tree built in-process.
func (e *Engine) Format() string {
	if e.idx != nil {
		return tctree.FormatTCBIN
	}
	return "memory"
}

// acquire returns the shard's view, stamping its recency, and opening it
// from disk first when the shard is file-backed and not resident. load is
// the wall time of the disk load this call performed — zero when it
// performed none — so the executor can attribute it. Concurrent first
// touches share a single load through the shard's sync.Once; a load failure is sticky for the life of the struct (an
// update that replaces the shard installs a fresh one). The loop handles the race with eviction: if the view vanishes
// between the load and the re-check, the fresh sync.Once installed by the
// evictor triggers another load. The identity check on s.once before
// installing the loaded view handles the race with replaceShardsLocked: a
// load that was in flight when the struct left the table would otherwise
// install a view (and a residency charge) no evictor can ever see again;
// such results are discarded and the loop ends on the struct's poison.
func (e *Engine) acquire(s *shard) (view *tctree.BinShard, load time.Duration, err error) {
	if s.load == nil {
		return s.view, 0, nil
	}
	for {
		s.mu.Lock()
		if s.view != nil {
			view := s.view
			s.lastUsed.Store(e.res.clock.Add(1))
			s.mu.Unlock()
			return view, load, nil
		}
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return nil, load, err
		}
		once := s.once
		s.mu.Unlock()
		once.Do(func() {
			start := time.Now()
			view, err := s.load()
			took := time.Since(start)
			s.mu.Lock()
			if s.once != once {
				// The shard was evicted or left the table while this load
				// was in flight; discard the stale result.
				s.mu.Unlock()
				return
			}
			if err != nil {
				s.err = err
			} else {
				s.view = view
				s.lastUsed.Store(e.res.clock.Add(1))
				s.loads.Add(1)
				e.lazyLoads.Add(1)
				e.res.resident.Add(1)
				e.res.bytes.Add(view.SizeBytes())
				// A load is never instantaneous; the floor keeps "performed
				// a load" and "load > 0" the same thing on a coarse clock.
				load += max(took, time.Nanosecond)
			}
			s.mu.Unlock()
			if err == nil {
				e.res.enforce(s)
			}
		})
	}
}

// Release withdraws the engine from the federation resources it shares:
// every resident lazy shard is evicted (returning its budget share to the
// residency group) and every cached answer of the engine's namespace is
// purged from the shared cache. The engine then stands alone: it keeps
// answering queries, but over a private residency group of the same budget
// and without the shared cache, so a handle that outlives a detach can
// neither consume the federation's budget unchecked (a non-member's shards
// are invisible to the group's evictor) nor repopulate its old namespace in
// the shared cache. Release must not race with queries on the same engine —
// a load in flight across the switch may leave the old group's resident
// count one high. Solo engines may call it too; it simply empties their
// cache and resident set.
func (e *Engine) Release() {
	e.res.remove(e)
	if e.cache != nil {
		e.cache.invalidate(e.cacheNS, func(itemset.Itemset, bool) bool { return true })
	}
	if e.sharedRes {
		g := NewResidencyGroupBytes(e.res.max, e.res.maxBytes)
		g.add(e)
		e.res = g
		e.sharedRes = false
	}
	if e.sharedCache {
		e.cache = nil
		e.cacheNS = ""
		e.sharedCache = false
	}
}

// canonical clamps a query pattern to the indexed top-level items. A nil
// pattern means "every item" (query by alpha). The result is the smallest
// pattern with the same answer as q, so it doubles as the cache key pattern;
// full reports whether it covers every indexed item, in which case the cache
// key degenerates to the empty-pattern sentinel so that the query by alpha
// and any pattern spanning the whole item universe share one cache entry.
func canonical(t *shardTable, q itemset.Itemset) (eff itemset.Itemset, full bool) {
	if q == nil {
		return t.items, true
	}
	eff = q.Intersect(t.items)
	return eff, len(eff) == len(t.items)
}

// canonicalMode is canonical for either query mode. A containment pattern is
// kept whole — an item no shard is rooted at still constrains the answer —
// and an empty one is the query-by-alpha workload: every indexed pattern
// contains the empty pattern.
func canonicalMode(t *shardTable, q itemset.Itemset, mode QueryMode) (QueryMode, itemset.Itemset, bool) {
	if mode == ModeContaining {
		if q.Len() > 0 {
			return mode, itemset.New(q...), false
		}
		q = nil
	}
	eff, full := canonical(t, q)
	return ModeSub, eff, full
}

// cacheKey renders the canonicalized query as a map key. A full query (every
// indexed item) is keyed by the "*" sentinel instead of the whole item list —
// it cannot collide with a real pattern key (those are 4-byte aligned) or
// with the empty pattern of a query matching no indexed item. The alpha is
// encoded exactly ('b' format is lossless for float64), so distinct
// thresholds never collide.
func cacheKey(q itemset.Itemset, full bool, alphaQ float64) string {
	p := string(q.Key())
	if full {
		p = "*"
	}
	return p + "\x00" + strconv.FormatFloat(alphaQ, 'b', -1, 64)
}

// key is cacheKey under the engine's cache namespace. Namespaces are network
// names and never contain the \x1f separator, so tenants of a shared cache
// cannot collide; a solo engine's empty namespace degenerates to a plain
// prefix.
func (e *Engine) key(q itemset.Itemset, full bool, alphaQ float64) string {
	return e.cacheNS + "\x1f" + cacheKey(q, full, alphaQ)
}

// keyMode is key with the query mode folded in: containment entries carry a
// "#" marker so a containment answer can never be served to a sub-pattern
// query for the same pattern and threshold (or vice versa). "#" cannot
// collide with the "*" sentinel or a real pattern key (those are 4-byte
// aligned).
func (e *Engine) keyMode(mode QueryMode, q itemset.Itemset, full bool, alphaQ float64) string {
	if mode == ModeContaining {
		return e.cacheNS + "\x1f#" + cacheKey(q, false, alphaQ)
	}
	return e.key(q, full, alphaQ)
}

// Answer is the engine's answer to a query (q, α_q): the theme communities
// of every retrieved maximal pattern truss as flat records, with the query
// statistics. It is what the engine merges, ranks and caches and what the
// serving layers render; it holds a few bytes per vertex of a community and
// nothing per edge. Cached answers are shared between callers: Communities
// and everything it points to are immutable.
type Answer struct {
	// Communities are the theme communities: shards in ascending root-item
	// order, each shard's retrieved nodes in breadth-first order, each
	// node's communities by smallest vertex — the order of the communities
	// of tctree.Query's answer within a shard.
	Communities []truss.Community
	// RetrievedNodes is the number of TC-Tree nodes whose truss was
	// retrieved ("RN" in Figure 5 of the paper).
	RetrievedNodes int
	// VisitedNodes is the number of TC-Tree nodes inspected, including nodes
	// whose truss was empty at α_q.
	VisitedNodes int
	// Duration is the wall-clock query time.
	Duration time.Duration
}

// QueryContext answers (q, α_q) like tctree.Query, but traverses only the
// shards whose root item is in q, in parallel across the worker pool. A nil q
// means "every item" (the query-by-alpha workload). The answer lists the
// communities of the retrieved trusses grouped by shard in ascending
// root-item order, each shard in breadth-first order; the set of communities
// equals that of tctree.Query's answer. The error surfaces shard-load
// failures (missing file, checksum mismatch, corrupt payload). ctx carries
// the request correlation ID (obs.WithRequestID) to the injected Recorder,
// and cancels the query at shard boundaries: once ctx is done no further
// shard is opened (a traversal already running finishes) and the query
// returns ctx.Err(), never cached. cmd/tcload pins the name.
func (e *Engine) QueryContext(ctx context.Context, q itemset.Itemset, alphaQ float64) (*Answer, error) {
	return e.query(ctx, q, alphaQ, ModeSub)
}

// QueryContainingContext answers the containment workload: the communities
// of every indexed pattern p ⊇ q at α_q, grouped by shard in ascending
// root-item order. Only shards whose root item is at most min(q) are
// considered, and the per-shard item bloom filter rules shards out without
// opening them. An empty or nil q degenerates to the query by alpha — every
// indexed pattern contains the empty pattern. VisitedNodes counts what the
// planned execution inspects: a shard its bloom filter rules out contributes
// no visit at all, so the count can be lower than an unplanned walk's; the
// communities are the same. The context works as in QueryContext.
func (e *Engine) QueryContainingContext(ctx context.Context, q itemset.Itemset, alphaQ float64) (*Answer, error) {
	return e.query(ctx, q, alphaQ, ModeContaining)
}

// query is the body of QueryContext and QueryContainingContext: cache
// lookup, then the plan drained on the worker pool, then cache put. It holds
// updateMu for reading throughout, so the shard table and the index epoch
// are stable for the whole execution.
func (e *Engine) query(ctx context.Context, q itemset.Itemset, alphaQ float64, mode QueryMode) (*Answer, error) {
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	e.queries.Add(1)
	start := time.Now()
	t := e.table.Load()
	mode, eff, full := canonicalMode(t, q, mode)
	if mode == ModeContaining {
		for _, it := range eff {
			if !t.items.Contains(it) {
				// Every item of every indexed pattern appears at level 1, so
				// an item outside the level-1 set appears in no pattern at
				// all: nothing can contain q.
				return &Answer{Duration: time.Since(start)}, nil
			}
		}
	}
	key := e.keyMode(mode, eff, full, alphaQ)
	var gen uint64
	epoch := e.epoch.Load()
	if e.cache != nil {
		if cached, ok := e.cache.get(key); ok {
			// Share the immutable payload, stamp the observed latency.
			res := *cached
			res.Duration = time.Since(start)
			if e.recorder != nil {
				e.recorder.RecordQuery(ctx, trace.QueryObservation{
					Network:  e.cacheNS,
					Pattern:  patternLabel(mode, eff, full),
					Alpha:    alphaQ,
					CacheHit: true,
					Total:    res.Duration,
				})
			}
			return &res, nil
		}
		// Capture the invalidation generation before executing: if an
		// invalidation runs while this query is in flight, the result may
		// predate the swap and put will discard it.
		gen = e.cache.generation(e.cacheNS)
	}
	st := e.newStream(ctx, t, start, eff, full, alphaQ, mode, false)
	res, err := st.drain()
	total := time.Since(start)
	if err == nil {
		res.Duration = total
		// Insert only if no index swap happened since the epoch was captured
		// (it cannot while updateMu is held for reading; the gate is the
		// second line of defense) and no invalidation of this namespace ran.
		// Containment answers depend on shards q does not name (every shard
		// rooted at or below min(q)), so they are stored as full entries: any
		// invalidation of the namespace purges them.
		if e.cache != nil && e.epoch.Load() == epoch {
			e.cache.put(key, e.cacheNS, eff, full || mode == ModeContaining, res, gen)
		}
	}
	st.observe(total, 0)
	return res, err
}

// patternLabel renders a canonicalized pattern for observations and the
// slow-query log: "*" for a full pattern (query by alpha), the item list
// otherwise, behind "⊇" for a containment query.
func patternLabel(mode QueryMode, eff itemset.Itemset, full bool) string {
	switch {
	case full:
		return "*"
	case mode == ModeContaining:
		return "⊇" + eff.String()
	}
	return eff.String()
}

// plan plans an already-canonicalized query over the shards that can hold an
// answer: for a sub-pattern query those rooted at an item of eff, for a
// containment query those rooted at or below min(eff) (the root item is the
// smallest item of every pattern a shard indexes). every widens the plan to
// the whole table, so that an Explain shows the excluded shards too. The
// statistics are listed in ascending root-item order either way, so the
// plan's tasks are, and the merge stays deterministic.
func (e *Engine) plan(t *shardTable, eff itemset.Itemset, alphaQ float64, mode QueryMode, every bool) *QueryPlan {
	var infos []ShardInfo
	switch {
	case every:
		infos = make([]ShardInfo, len(t.shards))
		for i, s := range t.shards {
			infos[i] = s.info()
		}
	case mode == ModeContaining:
		for _, s := range t.shards {
			if s.item > eff[0] {
				break
			}
			infos = append(infos, s.info())
		}
	default:
		infos = make([]ShardInfo, 0, len(eff))
		for _, it := range eff {
			if s, ok := t.lookup(it); ok {
				infos = append(infos, s.info())
			}
		}
	}
	return planQuery(infos, eff, alphaQ, mode, e.visitAll)
}

// DeltaResult summarises one Engine.ApplyDeltaInMemory call.
type DeltaResult struct {
	// Affected is the set of top-level items the delta could change — the
	// shards that were rebuilt. Unaffected shards were neither rebuilt nor
	// reloaded nor purged from the cache.
	Affected itemset.Itemset `json:"affected"`
	// Report details what happened to each affected shard.
	Report *tctree.CommitReport `json:"report"`
	// Epoch is the index epoch after the swap.
	Epoch uint64 `json:"epoch"`
	// RecomputedNodes and ReusedNodes split the nodes of the rebuilt shards
	// by where they came from: mined from the updated network because the
	// delta's scope covers their pattern, or carried over from the shard's
	// previous version.
	RecomputedNodes int `json:"recomputedNodes"`
	ReusedNodes     int `json:"reusedNodes"`
	// PeeledEdges counts the edges of the theme networks the rebuild handed
	// to the peeler, CarriedEdges the edges its mined nodes took from the
	// levels their previous versions hold outside the delta's region.
	PeeledEdges  int `json:"peeledEdges"`
	CarriedEdges int `json:"carriedEdges"`
	// Duration is the wall time of the in-memory apply: scope, delta,
	// rebuild and swap — the value tc_update_apply_duration_seconds
	// observes. It never includes a journal append or a checkpoint.
	Duration time.Duration `json:"-"`
}

// ApplyDeltaInMemory is the one way to change the engine's index after a
// network delta: the delta is applied to nw (which must be the network the
// index was built from), the shard of every affected top-level item is
// rebuilt from the updated network, and the rebuilt shards are swapped into
// the live table as heap shards — the TCBIN bytes the rebuild produced, served
// by the kernel that serves a mapped file — while unaffected shards are left
// untouched, resident and cached. No index file is written: on an engine over
// an on-disk index the rebuilt shards join the dirty set, and Checkpoint — the
// one way to persist — later folds them into the index in one commit. The
// caller owns durability: a journal append before this call, or a Checkpoint
// right after it.
//
// The swap is serialized against in-flight queries (updateMu): a query
// observes either the whole pre-delta index or the whole post-delta index,
// never a mix. Cached answers that could depend on an affected shard (their
// pattern intersects the affected set, or they cover every item) are purged,
// the index epoch is bumped, and concurrent deltas queue on applyMu. After
// ApplyDeltaInMemory returns, querying the engine is byte-identical to
// querying an index rebuilt from scratch on the updated network.
//
// Dirty shards are pinned until the next Checkpoint — the index on disk does
// not have their content yet — but charged to the byte budget at their real
// size, so file-backed shards make room for them.
func (e *Engine) ApplyDeltaInMemory(nw *dbnet.Network, d *delta.Delta) (*DeltaResult, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	start := time.Now()
	if e.builtMaxDepth > 0 {
		return nil, fmt.Errorf("engine: index was built with MaxDepth %d; incremental maintenance needs an unbounded index", e.builtMaxDepth)
	}
	scope := delta.ScopeOf(nw, d)
	// Union in the affected set of any previously failed update: its delta
	// already mutated the network, so those shards still await their
	// rebuild. A transient failure is therefore healed by the next
	// successful update (an empty delta suffices).
	affected := scope.Items().Union(e.pendingAffected)
	if err := delta.Apply(nw, d); err != nil {
		// Apply validates first and mutates nothing on failure.
		return nil, err
	}
	// From here on the network carries the delta while the engine keeps
	// serving the old index: a failure remembers the affected set so that a
	// retry rebuilds these shards. An affected shard is read where a query
	// reads it, only the part of it inside the scope is re-mined, and the
	// rest is copied across from the bytes the engine serves. The rebuild runs
	// outside updateMu; only the swap excludes queries.
	shards, stats, err := tctree.RebuildScoped(nw, affected, tctree.Scope{
		Witnesses: scope.Witnesses,
		Seeds:     func(it itemset.Item) []graph.VertexID { return scope.Seeds(nw, it) },
	}, e.previousShard)
	var report *tctree.CommitReport
	var epoch uint64
	if err == nil {
		report, epoch, err = e.install(affected, shards)
	}
	if err != nil {
		e.pendingAffected = affected
		return nil, err
	}
	e.deltas.Add(1)
	e.nodesRecomputed.Add(uint64(stats.Recomputed))
	e.nodesReused.Add(uint64(stats.Reused))
	e.edgesPeeled.Add(uint64(stats.Peeled))
	e.edgesCarried.Add(uint64(stats.Carried))
	res := &DeltaResult{
		Affected:        affected,
		Report:          report,
		Epoch:           epoch,
		RecomputedNodes: stats.Recomputed,
		ReusedNodes:     stats.Reused,
		PeeledEdges:     stats.Peeled,
		CarriedEdges:    stats.Carried,
		Duration:        time.Since(start),
	}
	if e.recorder != nil {
		e.recorder.RecordUpdate(trace.UpdateObservation{Network: e.cacheNS, Duration: res.Duration})
	}
	return res, nil
}

// install is the one routine that puts rebuilt shards in front of queries,
// behind both ApplyDeltaInMemory and ResyncInMemory: every affected item's
// shard is replaced by its rebuilt bytes opened on the heap (or leaves the
// table when it decomposed to nothing), the rebuilt shards join the dirty set
// for the next Checkpoint, the epoch is bumped, and every cached answer that
// could depend on an affected shard is purged — an answer whose pattern
// contains an affected item, or a full-pattern one, which depends on every
// shard; only this engine's namespace is touched. It returns what happened to
// each item and the new epoch. Callers hold applyMu.
func (e *Engine) install(affected itemset.Itemset, shards map[itemset.Item]*tctree.EncodedShard) (*tctree.CommitReport, uint64, error) {
	source, err := heapShards(shards)
	if err != nil {
		return nil, 0, err
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	report := e.replaceShardsLocked(affected, source)
	e.markDirty(shards)
	e.pendingAffected = nil
	epoch := e.epoch.Add(1)
	if e.cache != nil {
		e.cache.invalidate(e.cacheNS, func(q itemset.Itemset, full bool) bool {
			return full || q.Intersect(affected).Len() > 0
		})
	}
	return report, epoch, nil
}

// previousShard returns the shard the item is served from, for a scoped
// rebuild to carry its unchanged part over, or nil when the shard must be
// rebuilt in full: the item has no shard yet, its shard cannot be read — the
// rebuild then heals it — or the item is left over from a failed update, so
// that its shard predates a delta this one's scope knows nothing about. It
// runs on the rebuild's workers, under the caller's applyMu; the rebuild keeps
// the shard alive until its bytes are copied, whatever eviction does.
func (e *Engine) previousShard(it itemset.Item) *tctree.BinShard {
	if e.pendingAffected.Contains(it) {
		return nil
	}
	s, ok := e.table.Load().lookup(it)
	if !ok {
		return nil
	}
	view, _, err := e.acquire(s)
	if err != nil {
		return nil
	}
	return view
}

// replaceShardsLocked is the one routine that changes the shard table after
// construction: for every item, mk supplies the struct that takes its place
// — committedShard for a file-backed shard of the just-committed manifest
// entry, heapShards for rebuilt bytes no file holds — or nil to remove the
// item. Untouched structs are carried over, so the work under the write lock
// is proportional to the update, not the index. Every struct leaving the
// table is retired, and a heap shard entering it is charged to the residency
// group at its real size: pinned, but memory the byte budget must see. The
// returned report says what happened to each item (items that are absent and
// stay absent are omitted). Epoch and cache invalidation are the caller's: a
// checkpoint swaps identical content and must not bump either. Callers hold
// updateMu for writing.
func (e *Engine) replaceShardsLocked(items itemset.Itemset, mk func(itemset.Item) *shard) *tctree.CommitReport {
	t := e.table.Load()
	report := &tctree.CommitReport{}
	retired := make(map[itemset.Item]bool, len(items))
	shards := make([]*shard, 0, len(t.shards)+len(items))
	for _, it := range items {
		old, exists := t.lookup(it)
		s := mk(it)
		switch {
		case s == nil && !exists:
			continue
		case s == nil:
			report.Removed = append(report.Removed, it)
		case exists:
			report.Replaced = append(report.Replaced, it)
		default:
			report.Added = append(report.Added, it)
		}
		if exists {
			retired[it] = true
			e.retireShard(old)
		}
		if s != nil {
			e.res.bytes.Add(s.pinnedBytes())
			shards = append(shards, s)
		}
	}
	for _, s := range t.shards {
		if !retired[s.item] {
			shards = append(shards, s)
		}
	}
	e.table.Store(newShardTable(shards))
	return report
}

// retireShard takes a struct that is leaving the table out of service: its
// residency charge is returned and it is poisoned, in one critical section,
// so a load still in flight can neither re-install a view (and a residency
// count) on a shard no evictor can ever see again — the fresh once makes the
// in-flight install discard itself — nor load anew — the sticky error stops
// acquire's retry loop. A heap shard keeps its view: a stream
// opened before the update may still be reading its snapshot.
func (e *Engine) retireShard(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.view != nil {
		e.res.bytes.Add(-s.view.SizeBytes())
		if s.load != nil {
			e.res.resident.Add(-1)
			e.evictions.Add(1)
			s.view.Evicted()
			s.view = nil
		}
	}
	s.err = errShardRemoved
	s.once = new(sync.Once)
}

// committedShard is the replaceShardsLocked source for shards the on-disk
// index holds: a file-backed shard from the item's current manifest entry,
// nil when the manifest no longer has one.
func (e *Engine) committedShard(it itemset.Item) *shard {
	entry, ok := e.idx.Entry(it)
	if !ok {
		return nil
	}
	return newShard(entry, e.idx, nil)
}

// heapShards is the replaceShardsLocked source for rebuilt shards that exist
// only in memory: every encoded shard opened on the heap — here, before the
// lock is taken — and nil for an item that decomposed to nothing.
func heapShards(shards map[itemset.Item]*tctree.EncodedShard) (func(itemset.Item) *shard, error) {
	opened := make(map[itemset.Item]*shard, len(shards))
	for it, enc := range shards {
		if enc == nil {
			continue
		}
		s, err := heapShard(enc)
		if err != nil {
			return nil, err
		}
		opened[it] = s
	}
	return func(it itemset.Item) *shard { return opened[it] }, nil
}

// newShardTable assembles a table from shards, sorting them by root item.
func newShardTable(shards []*shard) *shardTable {
	sort.Slice(shards, func(i, j int) bool { return shards[i].item < shards[j].item })
	t := &shardTable{shards: shards, index: make(map[itemset.Item]int, len(shards))}
	for i, s := range shards {
		t.index[s.item] = i
		t.items = append(t.items, s.item)
	}
	return t
}

// Request is one query of a batch.
type Request struct {
	// Pattern is the query pattern q; nil means every item.
	Pattern itemset.Itemset
	// Alpha is the cohesion threshold α_q.
	Alpha float64
}

// QueryBatchContext answers many queries in one call. Queries run
// concurrently on at most Workers() goroutines (par.For), each holding a
// slot of the engine-wide batch pool; answers are returned in request
// order. Repeated queries within a batch are served from the cache once the
// first execution completes (concurrent duplicates may each execute). A query
// that fails (lazy shard-load error) leaves a nil slot in the answers; the
// error joins every per-query failure, annotated with its request index. A
// query whose context ends while it waits for a slot fails with the
// context's error without waiting on. Every query of the batch reports to
// the Recorder under the batch's request ID.
func (e *Engine) QueryBatchContext(ctx context.Context, reqs []Request) ([]*Answer, error) {
	e.batches.Add(1)
	out := make([]*Answer, len(reqs))
	errs := make([]error, len(reqs))
	par.For(len(reqs), e.workers, func(i int) {
		select {
		case e.batchSem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = fmt.Errorf("query %d: %w", i, ctx.Err())
			return
		}
		defer func() { <-e.batchSem }()
		res, err := e.QueryContext(ctx, reqs[i].Pattern, reqs[i].Alpha)
		if err != nil {
			errs[i] = fmt.Errorf("query %d: %w", i, err)
			return
		}
		out[i] = res
	})
	return out, errors.Join(errs...)
}
