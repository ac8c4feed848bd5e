package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"themecomm/internal/core"
	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// writeShardedTestTree persists the tree in the sharded format and opens it.
func writeShardedTestTree(t *testing.T, tree *tctree.Tree) (*tctree.ShardedIndex, string) {
	t.Helper()
	dir := t.TempDir()
	if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	return idx, dir
}

// testNetwork regenerates the network buildTestTree(t, seed) indexes, for
// tests that go on to update the index.
func testNetwork(seed int64) *dbnet.Network {
	return randomNetwork(rand.New(rand.NewSource(seed)), 16, 40, 5, 4)
}

// touchDelta is the smallest delta that replaces item's shard: one new
// isolated vertex carrying only the item. Its affected set is exactly
// {item}, and — an isolated vertex joins no truss — it changes no answer.
func touchDelta(nw *dbnet.Network, item itemset.Item) *delta.Delta {
	return &delta.Delta{AddVertices: 1, AddTransactions: []delta.VertexTransaction{
		{Vertex: graph.VertexID(nw.NumVertices()), Tx: itemset.New(item)},
	}}
}

// triangleDelta changes the answer of item's shard and no other: three new
// vertices carrying only the item, pairwise connected, add one triangle to
// the item's theme network. Its affected set is exactly {item}.
func triangleDelta(nw *dbnet.Network, item itemset.Item) *delta.Delta {
	return patternTriangleDelta(nw, itemset.New(item))
}

// patternTriangleDelta adds three new, pairwise connected vertices that each
// carry one transaction holding exactly the pattern: one more triangle in the
// theme network of the pattern and of each of its sub-patterns.
func patternTriangleDelta(nw *dbnet.Network, pattern itemset.Itemset) *delta.Delta {
	n := graph.VertexID(nw.NumVertices())
	d := &delta.Delta{AddVertices: 3, AddEdges: []graph.Edge{graph.EdgeOf(n, n+1), graph.EdgeOf(n+1, n+2), graph.EdgeOf(n, n+2)}}
	for v := n; v < n+3; v++ {
		d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{Vertex: v, Tx: pattern})
	}
	return d
}

func TestNewLazyRejectsNilIndex(t *testing.T) {
	if _, err := NewLazy(nil, Options{}); err == nil {
		t.Fatalf("nil index should be rejected")
	}
}

// TestLazyMatchesEager is the lazy-mode correctness test: for every
// combination of worker count, cache configuration and residency budget, the
// lazily loaded answer must equal the in-memory tctree.Query answer — same
// trusses, same visit counts.
func TestLazyMatchesEager(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	items := tree.Root().Children
	full := make(itemset.Itemset, 0, len(items))
	for _, c := range items {
		full = append(full, c.Item)
	}
	rng := rand.New(rand.NewSource(29))
	queries := []itemset.Itemset{nil, full, itemset.New(full[0]), itemset.New(full[0], 999)}
	for trial := 0; trial < 4; trial++ {
		var q itemset.Itemset
		for _, it := range full {
			if rng.Intn(2) == 0 {
				q = q.Add(it)
			}
		}
		queries = append(queries, q)
	}
	alphas := []float64{0, 0.1, 0.3, treeMaxAlpha(tree), treeMaxAlpha(tree) + 1}

	for _, workers := range []int{1, 4} {
		for _, cacheSize := range []int{0, 16} {
			for _, budget := range []int{0, 1, 2} {
				eng, err := NewLazy(idx, Options{Workers: workers, CacheSize: cacheSize, MaxResidentShards: budget})
				if err != nil {
					t.Fatalf("NewLazy: %v", err)
				}
				for _, q := range queries {
					for _, alpha := range alphas {
						var want *tctree.QueryResult
						if q == nil {
							want = tree.QueryByAlpha(alpha)
						} else {
							want = tree.Query(q, alpha)
						}
						for rep := 0; rep < 2; rep++ {
							assertSameAnswer(t, mustQuery(t, eng, q, alpha), want)
						}
					}
				}
				stats := eng.Stats()
				if !stats.Lazy || stats.LazyLoads == 0 {
					t.Fatalf("lazy engine reports lazy=%v loads=%d", stats.Lazy, stats.LazyLoads)
				}
				if budget > 0 {
					if stats.ResidentShards > budget {
						t.Fatalf("budget %d exceeded: %d resident", budget, stats.ResidentShards)
					}
					if len(eng.table.Load().shards) > budget && stats.ShardEvictions == 0 {
						t.Fatalf("budget %d with %d shards saw no evictions", budget, len(eng.table.Load().shards))
					}
				}
			}
		}
	}
}

// TestLazyResidency is the cold-start acceptance check: before any query
// nothing is resident; after one single-item query exactly that shard is.
func TestLazyResidency(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	if got := eng.Stats().ResidentShards; got != 0 {
		t.Fatalf("cold engine has %d resident shards, want 0", got)
	}
	if eng.NumNodes() != tree.NumNodes() || eng.Depth() != tree.Depth() {
		t.Fatalf("metadata (%d nodes, depth %d) should come from the manifest without loading; tree has (%d, %d)",
			eng.NumNodes(), eng.Depth(), tree.NumNodes(), tree.Depth())
	}
	if got := eng.Stats().ResidentShards; got != 0 {
		t.Fatalf("metadata reads loaded %d shards", got)
	}

	first := tree.Root().Children[0].Item
	mustQuery(t, eng, itemset.New(first), 0)
	stats := eng.Stats()
	if stats.ResidentShards != 1 {
		t.Fatalf("after one single-item query %d shards are resident, want 1", stats.ResidentShards)
	}
	if stats.ResidentShards >= stats.Shards {
		t.Fatalf("expected fewer-than-all shards resident (%d of %d)", stats.ResidentShards, stats.Shards)
	}
	for _, ss := range stats.ShardResidency {
		wantResident := itemset.Item(ss.Item) == first
		if ss.Resident != wantResident {
			t.Fatalf("shard %d residency = %v, want %v", ss.Item, ss.Resident, wantResident)
		}
	}

	// A full query loads everything (unlimited budget).
	mustQueryByAlpha(t, eng, 0)
	if got := eng.Stats().ResidentShards; got != eng.NumShards() {
		t.Fatalf("after a full query %d of %d shards resident", got, eng.NumShards())
	}
}

// TestLazyEvictionBudget holds the engine to one resident shard and checks
// that the budget is enforced, answers stay correct, and reloads happen on
// re-touch.
func TestLazyEvictionBudget(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{MaxResidentShards: 1})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	children := tree.Root().Children
	if len(children) < 2 {
		t.Fatalf("need at least 2 shards")
	}
	a, b := children[0].Item, children[1].Item
	for rep := 0; rep < 3; rep++ {
		for _, it := range []itemset.Item{a, b} {
			q := itemset.New(it)
			assertSameAnswer(t, mustQuery(t, eng, q, 0), tree.Query(q, 0))
			if got := eng.Stats().ResidentShards; got > 1 {
				t.Fatalf("budget 1 exceeded: %d resident", got)
			}
		}
	}
	stats := eng.Stats()
	if stats.ShardEvictions == 0 {
		t.Fatalf("alternating queries under budget 1 produced no evictions")
	}
	if stats.LazyLoads < 2 {
		t.Fatalf("expected repeated loads, got %d", stats.LazyLoads)
	}
}

// planEntryPoints lists the ways of executing a plan for (q, alpha): the
// drained queries, Explain, both pulled streams and the top-k, each reduced
// to its error.
func planEntryPoints(ctx context.Context, q itemset.Itemset, alpha float64) map[string]func(*Engine) error {
	pull := func(st *Stream, err error) error {
		if err != nil {
			return err
		}
		defer st.Close()
		for {
			if rc, err := st.Next(); rc == nil || err != nil {
				return err
			}
		}
	}
	return map[string]func(*Engine) error{
		"Query":           func(e *Engine) error { _, err := e.QueryContext(ctx, q, alpha); return err },
		"QueryContaining": func(e *Engine) error { _, err := e.QueryContainingContext(ctx, q, alpha); return err },
		"Explain":         func(e *Engine) error { _, err := e.ExplainContext(ctx, q, alpha, ModeSub); return err },
		"StreamQuery":     func(e *Engine) error { return pull(e.StreamQuery(ctx, q, alpha)) },
		"StreamTopK":      func(e *Engine) error { return pull(e.StreamTopK(ctx, q, alpha, 0)) },
		"TopK":            func(e *Engine) error { _, _, err := e.TopKWithResultContext(ctx, q, alpha, 3); return err },
	}
}

// TestLazyLoadErrorIsStickyUntilReload corrupts a shard file: queries
// touching it fail (repeatedly, without re-reading the file), other shards
// keep answering, and an update that replaces the shard — a fresh struct over
// a freshly written file — recovers.
func TestLazyLoadErrorIsStickyUntilReload(t *testing.T) {
	tree := buildTestTree(t, 11)
	nw := testNetwork(11)
	idx, dir := writeShardedTestTree(t, tree)
	children := tree.Root().Children
	victim := children[0].Item
	entry, ok := idx.Entry(victim)
	if !ok {
		t.Fatalf("no manifest entry for %d", victim)
	}
	path := filepath.Join(dir, entry.File)
	bad, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	q := itemset.New(victim)
	// Every entry point reads a shard through the same routine, so the fault
	// surfaces from each with the same wrapping — and, being sticky, again.
	wrapped := fmt.Sprintf("engine: shard %d: ", victim)
	for round := 0; round < 2; round++ {
		for name, run := range planEntryPoints(context.Background(), q, 0) {
			err := run(eng)
			if err == nil || !strings.Contains(err.Error(), wrapped) || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("%s over a corrupted shard returned %v, want %q … checksum", name, err, wrapped)
			}
		}
	}
	if got := eng.Stats().LazyLoads; got != 0 {
		t.Fatalf("a sticky load error was re-read into %d loads", got)
	}
	// A full query also fails, but a query avoiding the shard succeeds.
	if _, err := eng.QueryContext(context.Background(), nil, 0); err == nil {
		t.Fatalf("full query over a corrupted shard should fail")
	}
	if len(children) > 1 {
		other := itemset.New(children[1].Item)
		assertSameAnswer(t, mustQuery(t, eng, other, 0), tree.Query(other, 0))
	}

	applyDelta(t, eng, nw, touchDelta(nw, victim))
	assertSameAnswer(t, mustQuery(t, eng, q, 0), tree.Query(q, 0))
	assertSameAnswer(t, mustQueryByAlpha(t, eng, 0), tree.QueryByAlpha(0))
}

// TestApplyDeltaPurgesOnlyAffectedCacheEntries is the single-shard
// replacement test: a delta that affects one item must invalidate exactly the
// cached answers that depend on its shard, and subsequent queries must
// reflect the rebuilt subtree while untouched shards keep their answers (and
// their cache entries).
func TestApplyDeltaPurgesOnlyAffectedCacheEntries(t *testing.T) {
	for _, mode := range []string{"memory", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			tree := buildTestTree(t, 11)
			nw, twin := testNetwork(11), testNetwork(11)
			item := tree.Root().Children[0].Item
			var avoiding itemset.Itemset
			for _, c := range tree.Root().Children[1:] {
				avoiding = avoiding.Add(c.Item)
			}
			var eng *Engine
			var err error
			if mode == "memory" {
				eng, err = New(testIndex(t, 11), Options{CacheSize: 16})
			} else {
				idx, _ := writeShardedTestTree(t, tree)
				eng, err = NewLazy(idx, Options{CacheSize: 16})
			}
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			q := itemset.New(item)
			assertSameAnswer(t, mustQuery(t, eng, q, 0), tree.Query(q, 0))
			assertSameAnswer(t, mustQuery(t, eng, avoiding, 0), tree.Query(avoiding, 0))
			if got := eng.Stats().Cache.Length; got != 2 {
				t.Fatalf("cache holds %d entries, want 2", got)
			}

			d := triangleDelta(nw, item)
			res := applyDelta(t, eng, nw, d)
			if !res.Affected.Equal(q) || len(res.Report.Replaced) != 1 || res.Report.Replaced[0] != item {
				t.Fatalf("delta affected %v and replaced %v, want exactly item %d", res.Affected, res.Report.Replaced, item)
			}
			stats := eng.Stats()
			if stats.Cache.Length != 1 {
				t.Fatalf("after the delta the cache holds %d entries, want 1 (only the avoiding query)", stats.Cache.Length)
			}
			// The shard now answers from the rebuilt subtree...
			if err := delta.Apply(twin, d); err != nil {
				t.Fatalf("Apply on twin: %v", err)
			}
			fresh := tctree.Build(twin, tctree.BuildOptions{})
			got := mustQuery(t, eng, q, 0)
			assertSameAnswer(t, got, fresh.Query(q, 0))
			rootEdges := 0 // the shard root's communities lead the answer
			for _, c := range got.Communities {
				if c.Pattern.Equal(q) {
					rootEdges += c.Edges
				}
			}
			if rootEdges != tree.Query(q, 0).Trusses[0].Edges.Len()+3 {
				t.Fatalf("the delta's triangle is missing from the post-delta answer")
			}
			// ...and the untouched query still matches the original tree,
			// served from its surviving cache entry.
			before := stats.Cache.Hits
			assertSameAnswer(t, mustQuery(t, eng, avoiding, 0), tree.Query(avoiding, 0))
			if got := eng.Stats().Cache.Hits; got != before+1 {
				t.Fatalf("untouched query was not served from cache (hits %d -> %d)", before, got)
			}
		})
	}
}

// TestLazyTopKAndSearchVertex exercises the engine paths that need node
// lookups beyond plain queries on a lazy engine.
func TestLazyTopKAndSearchVertex(t *testing.T) {
	tree := buildTestTree(t, 7)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{MaxResidentShards: 2})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	eager, err := New(testIndex(t, 7), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, wantRanked, err := eager.TopKWithResultContext(context.Background(), nil, 0, 10)
	if err != nil {
		t.Fatalf("eager TopK: %v", err)
	}
	_, gotRanked, err := eng.TopKWithResultContext(context.Background(), nil, 0, 10)
	if err != nil {
		t.Fatalf("lazy TopK: %v", err)
	}
	assertEqualCommunities(t, gotRanked, wantRanked)

	// Vertex search over every vertex of the network agrees with TCFI.
	nw := testNetwork(7)
	mined := core.TCFI(nw, core.Options{Alpha: 0.1})
	for v := graph.VertexID(0); int(v) < nw.NumVertices(); v++ {
		mustSearchOracle(t, eng, mined, v, nil)
	}

	// Pattern listings: depth 1 needs no loads; deeper depths match the tree.
	for depth := 1; depth <= tree.Depth(); depth++ {
		var want []itemset.Itemset
		for _, p := range tree.Patterns() {
			if p.Len() == depth {
				want = append(want, p)
			}
		}
		got, err := eng.PatternsAtDepth(context.Background(), depth)
		if err != nil {
			t.Fatalf("PatternsAtDepth(%d): %v", depth, err)
		}
		if len(got) != len(want) {
			t.Fatalf("depth %d: lazy listed %d patterns, tree has %d", depth, len(got), len(want))
		}
	}
	if got := eng.Stats().ResidentShards; got > 2 {
		t.Fatalf("budget 2 exceeded after metadata traversals: %d resident", got)
	}
}

// TestLazyConcurrent hammers a tightly budgeted lazy engine from many
// goroutines so loads, evictions and traversals race; run with -race it
// verifies the locking discipline, and every answer must still be correct.
func TestLazyConcurrent(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{Workers: 4, CacheSize: 4, MaxResidentShards: 1})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	children := tree.Root().Children
	type job struct {
		q    itemset.Itemset
		want *tctree.QueryResult
	}
	jobs := make([]job, 0, len(children)+1)
	for _, c := range children {
		q := itemset.New(c.Item)
		jobs = append(jobs, job{q: q, want: tree.Query(q, 0)})
	}
	jobs = append(jobs, job{q: nil, want: tree.QueryByAlpha(0)})

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				j := jobs[(g+i)%len(jobs)]
				got, err := eng.QueryContext(context.Background(), j.q, 0)
				if err != nil {
					done <- err
					return
				}
				if got.RetrievedNodes != j.want.RetrievedNodes {
					done <- fmt.Errorf("query %v retrieved %d nodes, want %d", j.q, got.RetrievedNodes, j.want.RetrievedNodes)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Stats().ResidentShards; got > 1 {
		t.Fatalf("budget 1 exceeded after concurrent load: %d resident", got)
	}
}

// TestEagerEngineServesTheIndexBytes holds an engine over the index
// BuildIndex builds in-process (New) against one over the files Build writes
// for the same network (NewLazy): New serves the bytes from the heap, so the
// two hold the same shards — same catalogue, same sizes — and agree on every
// answer and counter, before an update and after one applied to both.
func TestEagerEngineServesTheIndexBytes(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	eager, err := New(testIndex(t, 11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := tree.Root().Children[0]
	patterns := []itemset.Itemset{nil, itemset.New(first.Item), itemset.New(first.Item, 999)}
	if len(first.Children) > 0 {
		patterns = append(patterns, first.Children[0].Pattern)
	}
	agree := func(phase string) {
		t.Helper()
		for _, q := range patterns {
			for _, alpha := range []float64{0, 0.1, 0.3} {
				want, got := mustQuery(t, eager, q, alpha), mustQuery(t, lazy, q, alpha)
				assertEqualCommunities(t, got.Communities, want.Communities)
				if got.VisitedNodes != want.VisitedNodes || got.RetrievedNodes != want.RetrievedNodes {
					t.Fatalf("%s: Query(%v, %v) visited/retrieved %d/%d lazily, %d/%d eagerly", phase, q, alpha,
						got.VisitedNodes, got.RetrievedNodes, want.VisitedNodes, want.RetrievedNodes)
				}
				if q == nil {
					continue
				}
				wantC, err := eager.QueryContainingContext(context.Background(), q, alpha)
				if err != nil {
					t.Fatal(err)
				}
				gotC, err := lazy.QueryContainingContext(context.Background(), q, alpha)
				if err != nil {
					t.Fatal(err)
				}
				assertEqualCommunities(t, gotC.Communities, wantC.Communities)
			}
		}
		mustQueryByAlpha(t, lazy, 0) // every file-backed shard resident, so sizes are reported
		es, ls := eager.Stats(), lazy.Stats()
		if es.Lazy || es.Format != "memory" || !ls.Lazy {
			t.Fatalf("%s: eager lazy=%v format=%q, lazy lazy=%v", phase, es.Lazy, es.Format, ls.Lazy)
		}
		for i := range ls.ShardResidency {
			ls.ShardResidency[i].Loads = 0
		}
		if !reflect.DeepEqual(es.ShardResidency, ls.ShardResidency) || es.ResidentBytes != ls.ResidentBytes || es.ResidentBytes == 0 {
			t.Fatalf("%s: shards differ:\neager %+v (%d bytes)\nlazy  %+v (%d bytes)", phase,
				es.ShardResidency, es.ResidentBytes, ls.ShardResidency, ls.ResidentBytes)
		}
	}
	agree("built")

	nwEager, nwLazy := testNetwork(11), testNetwork(11)
	resEager := applyDelta(t, eager, nwEager, patternTriangleDelta(nwEager, patterns[1]))
	resLazy := applyDelta(t, lazy, nwLazy, patternTriangleDelta(nwLazy, patterns[1]))
	if resEager.RecomputedNodes != resLazy.RecomputedNodes || resEager.ReusedNodes != resLazy.ReusedNodes || resEager.ReusedNodes == 0 {
		t.Fatalf("the update recomputed/reused %d/%d nodes eagerly, %d/%d lazily",
			resEager.RecomputedNodes, resEager.ReusedNodes, resLazy.RecomputedNodes, resLazy.ReusedNodes)
	}
	agree("updated")
}

// loadCounts tallies, through the tctree test hooks, the maps of each shard
// file and the DecodeBinShard runs for each shard item while a test runs.
type loadCounts struct {
	mu      sync.Mutex
	maps    map[string]int
	decodes map[itemset.Item]int
}

func countLoads(t *testing.T) *loadCounts {
	t.Helper()
	c := &loadCounts{maps: map[string]int{}, decodes: map[itemset.Item]int{}}
	tctree.OnMapShardFile = func(path string) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.maps[path]++
	}
	tctree.OnDecodeShard = func(e tctree.ShardEntry) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.decodes[itemset.Item(e.Item)]++
	}
	t.Cleanup(func() { tctree.OnMapShardFile, tctree.OnDecodeShard = nil, nil })
	return c
}

// of returns how often the file at path was mapped and the shard of item
// decoded.
func (c *loadCounts) of(path string, item itemset.Item) (maps, decodes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maps[path], c.decodes[item]
}

// evictedShard serves a fresh index from a lazy engine with room for one
// shard, loads the first shard and evicts it by loading the second. It
// returns the engine, the evicted shard's item and the path of its file.
func evictedShard(t *testing.T, tree *tctree.Tree) (eng *Engine, victim itemset.Item, path string) {
	t.Helper()
	idx, dir := writeShardedTestTree(t, tree)
	children := tree.Root().Children
	if len(children) < 2 {
		t.Fatalf("need at least 2 shards")
	}
	victim = children[0].Item
	entry, ok := idx.Entry(victim)
	if !ok {
		t.Fatalf("no manifest entry for %d", victim)
	}
	eng, err := NewLazy(idx, Options{MaxResidentShards: 1})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	q := itemset.New(victim)
	assertSameAnswer(t, mustQuery(t, eng, q, 0), tree.Query(q, 0))
	mustQuery(t, eng, itemset.New(children[1].Item), 0)
	if eng.Stats().ShardEvictions != 1 {
		t.Fatalf("loading a second shard under a budget of one evicted %d shards", eng.Stats().ShardEvictions)
	}
	return eng, victim, filepath.Join(dir, entry.File)
}

// TestReloadRevalidatesTheKeptMapping is the cost model of a reload: over K
// eviction/reload cycles of one shard its file is mapped once, every reload
// runs DecodeBinShard — checksum and structural checks — over the kept
// mapping, and every reload counts as a disk load (tc_engine_shard_loads_total
// is Stats().LazyLoads).
func TestReloadRevalidatesTheKeptMapping(t *testing.T) {
	tree := buildTestTree(t, 11)
	c := countLoads(t)
	eng, victim, path := evictedShard(t, tree)
	other := itemset.New(tree.Root().Children[1].Item)
	q := itemset.New(victim)
	const cycles = 5
	for k := 1; k < cycles; k++ {
		assertSameAnswer(t, mustQuery(t, eng, q, 0), tree.Query(q, 0))
		mustQuery(t, eng, other, 0)
	}
	if maps, decodes := c.of(path, victim); maps != 1 || decodes != cycles {
		t.Fatalf("%d loads of shard %d mapped its file %d times and decoded it %d times; want 1 map, %d decodes",
			cycles, victim, maps, decodes, cycles)
	}
	stats := eng.Stats()
	if stats.LazyLoads != 2*cycles || stats.ShardEvictions != 2*cycles-1 {
		t.Fatalf("%d cycles over two shards counted %d loads and %d evictions, want %d and %d",
			cycles, stats.LazyLoads, stats.ShardEvictions, 2*cycles, 2*cycles-1)
	}
	for _, ss := range stats.ShardResidency {
		if itemset.Item(ss.Item) == victim && ss.Loads != cycles {
			t.Fatalf("shard %d counted %d loads, want %d", victim, ss.Loads, cycles)
		}
	}
}

// renameOver replaces the file at path with raw the way a writer would: a
// new file renamed over it.
func renameOver(path string, raw []byte) error {
	if err := os.WriteFile(path+".new", raw, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".new", path)
}

// shardAfterTriangle returns the file of item's shard in the next generation
// of tree's index — after triangleDelta is applied and checkpointed — and
// requires it to agree with the first generation in item and node count but
// not in checksum.
func shardAfterTriangle(t *testing.T, tree *tctree.Tree, item itemset.Item) []byte {
	t.Helper()
	idx, dir := writeShardedTestTree(t, tree)
	first, _ := idx.Entry(item)
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	nw := testNetwork(11)
	applyDelta(t, eng, nw, triangleDelta(nw, item))
	next, _ := idx.Entry(item)
	if next.Nodes != first.Nodes || next.Checksum == first.Checksum {
		t.Fatalf("the next generation of shard %d holds %d nodes under %s, the first %d under %s; want the same count, another checksum",
			item, next.Nodes, next.Checksum, first.Nodes, first.Checksum)
	}
	raw, err := os.ReadFile(filepath.Join(dir, next.File))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestReloadChecksTheFileAgain changes an evicted shard's file under a lazy
// engine four ways. Each time the next load must fail — through the full
// validation, against the manifest entry the shard struct was built from —
// and the failure must be sticky like any load error
// (TestLazyLoadErrorIsStickyUntilReload): a later query fails the same way
// without mapping or decoding the file again.
func TestReloadChecksTheFileAgain(t *testing.T) {
	tree := buildTestTree(t, 11)
	nextGeneration := shardAfterTriangle(t, tree, tree.Root().Children[0].Item)
	for _, tc := range []struct {
		name string
		// change alters the file at path; other is the file of a different
		// valid shard of the same index.
		change func(path, other string) error
		// maps is how often the file is mapped in all: a change the kept
		// mapping sees needs no new one.
		maps int
		want string
	}{
		{
			name: "byte flipped in place",
			change: func(path, _ string) error {
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					return err
				}
				defer f.Close()
				st, err := f.Stat()
				if err != nil {
					return err
				}
				b := make([]byte, 1)
				if _, err := f.ReadAt(b, st.Size()/2); err != nil {
					return err
				}
				b[0] ^= 0xff
				_, err = f.WriteAt(b, st.Size()/2)
				return err
			},
			maps: 1,
			want: "checksum",
		},
		{
			// Truncated to nothing, every page of the old mapping lies past
			// the end of the file: reading through it would be SIGBUS.
			name:   "truncated in place",
			change: func(path, _ string) error { return os.Truncate(path, 0) },
			maps:   2,
			want:   "too small",
		},
		{
			name: "another shard renamed over it",
			change: func(path, other string) error {
				raw, err := os.ReadFile(other)
				if err != nil {
					return err
				}
				return renameOver(path, raw)
			},
			maps: 2,
			want: "manifest records item",
		},
		{
			// Item and node count agree with the manifest entry; only the
			// checksum tells the generations apart.
			name:   "another generation of the same shard renamed over it",
			change: func(path, _ string) error { return renameOver(path, nextGeneration) },
			maps:   2,
			want:   "checksum",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := countLoads(t)
			eng, victim, path := evictedShard(t, tree)
			other := tree.Root().Children[1].Item
			otherEntry, _ := eng.idx.Entry(other)
			if err := tc.change(path, filepath.Join(eng.idx.Dir(), otherEntry.File)); err != nil {
				t.Fatalf("changing %s: %v", path, err)
			}
			entry, _ := eng.idx.Entry(victim)
			loads := eng.Stats().LazyLoads
			q := itemset.New(victim)
			var first error
			for round := 0; round < 2; round++ {
				_, err := eng.QueryContext(context.Background(), q, 0)
				if err == nil || !strings.Contains(err.Error(), "shard "+entry.File+":") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("round %d: query over the changed file returned %v, want an error on %s … %q", round, err, entry.File, tc.want)
				}
				if round == 0 {
					first = err
				} else if err.Error() != first.Error() {
					t.Fatalf("the load error was not sticky: %v, then %v", first, err)
				}
				if maps, decodes := c.of(path, victim); maps != tc.maps || decodes != 2 {
					t.Fatalf("round %d: file mapped %d times and decoded %d times, want %d and 2", round, maps, decodes, tc.maps)
				}
			}
			if got := eng.Stats().LazyLoads; got != loads {
				t.Fatalf("failed reloads counted as %d loads", got-loads)
			}
			// The other shard keeps answering.
			q = itemset.New(other)
			assertSameAnswer(t, mustQuery(t, eng, q, 0), tree.Query(q, 0))
		})
	}
}
