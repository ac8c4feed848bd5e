package engine

import (
	"testing"

	"themecomm/internal/itemset"
)

// TestSharedCacheNamespacing runs two engines over different trees against
// one shared cache: the same canonical query key must never cross tenants,
// and a shard replacement on one tenant must leave the other tenant's
// entries intact.
func TestSharedCacheNamespacing(t *testing.T) {
	treeA := buildTestTree(t, 11)
	treeB := buildTestTree(t, 13)
	idxA, _ := writeShardedTestTree(t, treeA)
	idxB, _ := writeShardedTestTree(t, treeB)
	cache := NewResultCache(16)
	engA, err := NewLazy(idxA, Options{SharedCache: cache, CacheNamespace: "a"})
	if err != nil {
		t.Fatalf("NewLazy(a): %v", err)
	}
	engB, err := NewLazy(idxB, Options{SharedCache: cache, CacheNamespace: "b"})
	if err != nil {
		t.Fatalf("NewLazy(b): %v", err)
	}

	// The query-by-alpha key is identical per engine before namespacing; with
	// namespaces, each tenant must execute (miss) once and hit only its own
	// entry afterwards.
	assertSameAnswer(t, mustQueryByAlpha(t, engA, 0), treeA.QueryByAlpha(0))
	assertSameAnswer(t, mustQueryByAlpha(t, engB, 0), treeB.QueryByAlpha(0))
	hits, misses, _ := cache.Counters()
	if hits != 0 || misses != 2 {
		t.Fatalf("after two cold tenant queries: hits=%d misses=%d, want 0/2", hits, misses)
	}
	assertSameAnswer(t, mustQueryByAlpha(t, engA, 0), treeA.QueryByAlpha(0))
	assertSameAnswer(t, mustQueryByAlpha(t, engB, 0), treeB.QueryByAlpha(0))
	hits, _, _ = cache.Counters()
	if hits != 2 {
		t.Fatalf("warm tenant queries hit %d times, want 2", hits)
	}
	if cache.Len() != 2 {
		t.Fatalf("shared cache holds %d entries, want 2 (one per namespace)", cache.Len())
	}
	if !engA.Stats().Cache.Shared || engA.Stats().Cache.Capacity != 16 {
		t.Fatalf("engine stats do not report the shared cache: %+v", engA.Stats().Cache)
	}

	// Replacing a shard of tenant A purges only tenant A's entries.
	nwA := testNetwork(11)
	applyDelta(t, engA, nwA, touchDelta(nwA, treeA.Root().Children[0].Item))
	if cache.Len() != 1 {
		t.Fatalf("after tenant-a's delta the cache holds %d entries, want 1 (tenant b's)", cache.Len())
	}
	before, _, _ := cache.Counters()
	assertSameAnswer(t, mustQueryByAlpha(t, engB, 0), treeB.QueryByAlpha(0))
	if after, _, _ := cache.Counters(); after != before+1 {
		t.Fatalf("tenant b lost its cache entry to tenant a's delta")
	}

	// Release drops the tenant's remaining entries.
	mustQueryByAlpha(t, engA, 0)
	engA.Release()
	if cache.Len() != 1 {
		t.Fatalf("after Release the cache holds %d entries, want 1", cache.Len())
	}
}

// TestSharedResidencyBudget enrolls two lazy engines in one residency group
// with a budget of one shard: after any interleaving of queries, at most one
// shard may be resident across BOTH engines, so a hot tenant can never
// starve the group of its budget, and answers stay correct throughout.
func TestSharedResidencyBudget(t *testing.T) {
	treeA := buildTestTree(t, 11)
	treeB := buildTestTree(t, 13)
	idxA, _ := writeShardedTestTree(t, treeA)
	idxB, _ := writeShardedTestTree(t, treeB)
	group := NewResidencyGroupBytes(1, 0)
	engA, err := NewLazy(idxA, Options{SharedResidency: group})
	if err != nil {
		t.Fatalf("NewLazy(a): %v", err)
	}
	engB, err := NewLazy(idxB, Options{SharedResidency: group})
	if err != nil {
		t.Fatalf("NewLazy(b): %v", err)
	}

	// Hammer tenant A across all its shards, then touch tenant B: the group
	// budget holds at every step.
	for rep := 0; rep < 2; rep++ {
		for _, c := range treeA.Root().Children {
			q := itemset.New(c.Item)
			assertSameAnswer(t, mustQuery(t, engA, q, 0), treeA.Query(q, 0))
			if got := group.Resident(); got > 1 {
				t.Fatalf("group budget 1 exceeded: %d resident", got)
			}
		}
		q := itemset.New(treeB.Root().Children[0].Item)
		assertSameAnswer(t, mustQuery(t, engB, q, 0), treeB.Query(q, 0))
		if got := group.Resident(); got > 1 {
			t.Fatalf("group budget 1 exceeded after cross-tenant query: %d resident", got)
		}
	}
	statsA, statsB := engA.Stats(), engB.Stats()
	if statsA.ResidentShards+statsB.ResidentShards > 1 {
		t.Fatalf("tenants hold %d+%d resident shards, want ≤ 1 combined",
			statsA.ResidentShards, statsB.ResidentShards)
	}
	if !statsA.SharedResidency || statsA.MaxResidentShards != 1 {
		t.Fatalf("tenant stats do not report the shared budget: %+v", statsA)
	}
	if statsA.ShardEvictions == 0 {
		t.Fatalf("hot tenant saw no evictions under a shared budget of 1")
	}

	// Removing a member returns its residency to the group, and the released
	// engine stands alone: it keeps answering under a private budget of the
	// same size, never counting against the group again.
	engB.Release()
	if statsB = engB.Stats(); statsB.ResidentShards != 0 {
		t.Fatalf("released tenant still holds %d resident shards", statsB.ResidentShards)
	}
	if got := group.Resident(); got > 1 {
		t.Fatalf("group counts %d resident after release", got)
	}
	groupBefore := group.Resident()
	for _, c := range treeB.Root().Children {
		q := itemset.New(c.Item)
		assertSameAnswer(t, mustQuery(t, engB, q, 0), treeB.Query(q, 0))
	}
	if got := group.Resident(); got != groupBefore {
		t.Fatalf("zombie engine changed the group's resident count (%d -> %d)", groupBefore, got)
	}
	if stats := engB.Stats(); stats.SharedResidency || stats.ResidentShards > 1 {
		t.Fatalf("released engine stats = shared=%v resident=%d, want a private budget of 1",
			stats.SharedResidency, stats.ResidentShards)
	}
}
