package engine

import (
	"fmt"
	"sync"
	"testing"

	"themecomm/internal/itemset"
)

func result(n int) *Answer { return &Answer{RetrievedNodes: n} }

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", "", nil, false, result(1), 0)
	c.put("b", "", nil, false, result(2), 0)
	if _, ok := c.get("a"); !ok { // refresh a: b is now least recently used
		t.Fatalf("a should be cached")
	}
	c.put("c", "", nil, false, result(3), 0)
	if _, ok := c.get("b"); ok {
		t.Fatalf("b should have been evicted as least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatalf("a should have survived the eviction")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatalf("c should be cached")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	hits, misses, evictions := c.counters()
	if hits != 3 || misses != 1 || evictions != 1 {
		t.Fatalf("counters = %d/%d/%d, want 3 hits, 1 miss, 1 eviction", hits, misses, evictions)
	}
}

func TestLRUPutExistingRefreshes(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", "", nil, false, result(1), 0)
	c.put("b", "", nil, false, result(2), 0)
	c.put("a", "", nil, false, result(10), 0) // refresh value and recency
	c.put("c", "", nil, false, result(3), 0)  // evicts b, not a
	if res, ok := c.get("a"); !ok || res.RetrievedNodes != 10 {
		t.Fatalf("a = %v, want refreshed value 10", res)
	}
	if _, ok := c.get("b"); ok {
		t.Fatalf("b should have been evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestLRUConcurrent hammers the cache from many goroutines; run with -race
// it verifies the locking discipline.
func TestLRUConcurrent(t *testing.T) {
	c := newLRUCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%32)
				if _, ok := c.get(key); !ok {
					c.put(key, "", nil, false, result(i), 0)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 16 {
		t.Fatalf("cache grew past its bound: len = %d", c.len())
	}
	hits, misses, _ := c.counters()
	if hits+misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d lookups", hits+misses, 8*200)
	}
}

// TestLRUPutDropsStaleGeneration checks the reload-race guard: a result
// computed before an invalidation ran must not be inserted afterwards.
func TestLRUPutDropsStaleGeneration(t *testing.T) {
	c := newLRUCache(4)
	gen := c.generation("")
	c.invalidate("", func(itemset.Itemset, bool) bool { return false }) // bumps the generation
	c.put("a", "", nil, false, result(1), gen)
	if _, ok := c.get("a"); ok {
		t.Fatalf("stale-generation put must be discarded")
	}
	c.put("a", "", nil, false, result(1), c.generation(""))
	if _, ok := c.get("a"); !ok {
		t.Fatalf("current-generation put must be inserted")
	}
}
