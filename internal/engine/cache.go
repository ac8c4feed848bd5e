package engine

import (
	"container/list"
	"sync"

	"themecomm/internal/itemset"
)

// lruCache is a bounded, concurrency-safe LRU cache of query results.
// Cached *Answer values are shared between callers and must be treated as
// immutable; Engine.Query hands out shallow copies so that the per-call
// Duration never races.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	// gens counts invalidations per namespace. A put carries the generation
	// observed before its query executed; if an invalidation of the same
	// namespace ran in between, the result may predate a shard swap and is
	// dropped instead of inserted. Generations are per namespace so one
	// tenant's shard reload never discards another tenant's in-flight
	// results.
	gens map[string]uint64

	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key string
	// ns is the namespace of the engine that inserted the entry — empty for
	// a solo engine, the network name in a shared (federation) cache.
	// Invalidation is namespace-scoped: one tenant's shard reload never
	// drops another tenant's answers.
	ns string
	// pattern is the canonicalized query pattern of the entry, kept so that
	// invalidate can match entries by the items their answers depend on;
	// full marks an entry whose pattern covers every indexed item (query by
	// alpha), which depends on every shard.
	pattern itemset.Itemset
	full    bool
	res     *Answer
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, capacity),
		gens:    make(map[string]uint64),
	}
}

// get returns the cached result for key, marking it most recently used.
func (c *lruCache) get(key string) (*Answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// generation returns the namespace's current invalidation generation, to be
// captured before executing a query whose result will be offered to put.
func (c *lruCache) generation(ns string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gens[ns]
}

// put inserts or refreshes key, evicting the least recently used entry when
// the cache is full. pattern is the canonicalized query pattern the result
// answers and full marks a pattern covering every indexed item; both are
// recorded for invalidate. gen is the namespace's generation observed
// before the query executed: a stale generation means an invalidation of
// this namespace ran while the query was in flight, so the result may have
// been computed against a since-replaced shard and is discarded.
func (c *lruCache) put(key, ns string, pattern itemset.Itemset, full bool, res *Answer, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gens[ns] {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, ns: ns, pattern: pattern, full: full, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// invalidate removes every entry of the given namespace whose canonicalized
// query pattern (and full-pattern flag) matches, returning how many were
// dropped. Entries of other namespaces are never offered to match — tenants
// of a shared cache invalidate independently. Dropped entries do not count
// as LRU evictions.
func (c *lruCache) invalidate(ns string, match func(pattern itemset.Itemset, full bool) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[ns]++
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		entry := el.Value.(*cacheEntry)
		if entry.ns == ns && match(entry.pattern, entry.full) {
			c.ll.Remove(el)
			delete(c.entries, entry.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// counters returns the hit, miss and eviction counts.
func (c *lruCache) counters() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// ResultCache is a bounded LRU result cache shareable between engines. A
// federation builds one and hands it to every member engine
// (Options.SharedCache with a per-network Options.CacheNamespace): capacity,
// LRU order and counters are global — a hot tenant's entries displace a cold
// tenant's least-recently-used ones — while keys are namespaced so tenants
// never read each other's answers, and invalidation (shard reloads, detach)
// stays scoped to one namespace.
type ResultCache struct {
	c *lruCache
}

// NewResultCache returns a shareable result cache holding at most capacity
// entries across every namespace. Capacity must be positive.
func NewResultCache(capacity int) *ResultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResultCache{c: newLRUCache(capacity)}
}

// Capacity returns the global entry bound.
func (rc *ResultCache) Capacity() int { return rc.c.cap }

// Len returns the number of cached entries across every namespace.
func (rc *ResultCache) Len() int { return rc.c.len() }

// Counters returns the global hit, miss and eviction counts.
func (rc *ResultCache) Counters() (hits, misses, evictions uint64) { return rc.c.counters() }
