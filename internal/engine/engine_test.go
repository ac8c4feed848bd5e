package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// randomNetwork generates a dense random database network, the same
// construction the tctree tests use to cross-check the index against the
// miners.
func randomNetwork(rng *rand.Rand, n, m, items, maxTx int) *dbnet.Network {
	nw := dbnet.New(n)
	for i := 0; i < m; i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			nw.MustAddEdge(a, b)
		}
	}
	for v := 0; v < n; v++ {
		ntx := 1 + rng.Intn(maxTx)
		for i := 0; i < ntx; i++ {
			l := 1 + rng.Intn(3)
			tx := make([]itemset.Item, l)
			for j := range tx {
				tx[j] = itemset.Item(rng.Intn(items))
			}
			if err := nw.AddTransaction(graph.VertexID(v), itemset.New(tx...)); err != nil {
				panic(err)
			}
		}
	}
	return nw
}

func buildTestTree(t *testing.T, seed int64) *tctree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := randomNetwork(rng, 16, 40, 5, 4)
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.NumNodes() == 0 {
		t.Fatalf("generated tree is empty; pick another seed")
	}
	return tree
}

// builtIndex builds nw's index in-process (tctree.BuildIndex): what New
// serves.
func builtIndex(tb testing.TB, nw *dbnet.Network) *tctree.Index {
	tb.Helper()
	idx, err := tctree.BuildIndex(nw, tctree.BuildOptions{})
	if err != nil {
		tb.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// testIndex is the index of the network buildTestTree(t, seed) builds.
func testIndex(tb testing.TB, seed int64) *tctree.Index {
	tb.Helper()
	idx := builtIndex(tb, testNetwork(seed))
	if idx.NumNodes() == 0 {
		tb.Fatalf("seed %d built an empty index; pick another seed", seed)
	}
	return idx
}

// treeMaxAlpha is the tree's largest shard α* bound: a query with a larger
// α_q retrieves nothing.
func treeMaxAlpha(tree *tctree.Tree) float64 {
	maxAlpha := 0.0
	for _, s := range tree.ShardStats() {
		maxAlpha = max(maxAlpha, s.MaxAlpha)
	}
	return maxAlpha
}

// flatCommunity is one community in the comparable form the correctness tests
// use on both sides: an engine record as is, a reference community flattened
// the map-based way.
type flatCommunity struct {
	pattern  string
	vertices string
	edges    int
}

func flatten(c truss.Community) flatCommunity {
	return flatCommunity{pattern: c.Pattern.String(), vertices: fmt.Sprint(c.Vertices), edges: c.Edges}
}

// referenceCommunities flattens the communities of a tctree.Query answer in
// the engine's order: shards by ascending root item (a stable sort keeps each
// shard's breadth-first order and each truss's smallest-vertex order).
func referenceCommunities(want *tctree.QueryResult) []flatCommunity {
	comms := want.Communities()
	sort.SliceStable(comms, func(i, j int) bool { return comms[i].Pattern[0] < comms[j].Pattern[0] })
	out := make([]flatCommunity, len(comms))
	for i, c := range comms {
		out[i] = flatCommunity{pattern: c.Pattern.String(), vertices: fmt.Sprint(c.Vertices()), edges: c.Edges.Len()}
	}
	return out
}

// assertSameAnswer requires an engine answer to be the reference answer of
// the sequential tctree.Query: the same counters and the same communities —
// theme, vertex list, edge count — in the engine's shard-major order.
func assertSameAnswer(t *testing.T, got *Answer, want *tctree.QueryResult) {
	t.Helper()
	if got.RetrievedNodes != want.RetrievedNodes {
		t.Fatalf("RetrievedNodes = %d, want %d", got.RetrievedNodes, want.RetrievedNodes)
	}
	if got.VisitedNodes != want.VisitedNodes {
		t.Fatalf("VisitedNodes = %d, want %d", got.VisitedNodes, want.VisitedNodes)
	}
	assertCommunitiesAre(t, got.Communities, referenceCommunities(want))
}

func assertCommunitiesAre(t *testing.T, got []truss.Community, want []flatCommunity) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d communities, want %d", len(got), len(want))
	}
	for i, w := range want {
		if g := flatten(got[i]); g != w {
			t.Fatalf("community %d = %+v, want %+v", i, g, w)
		}
	}
}

// assertEqualAnswers requires two engine answers to agree record for record,
// cohesions included, and on the counters.
func assertEqualAnswers(t *testing.T, got, want *Answer) {
	t.Helper()
	if got.RetrievedNodes != want.RetrievedNodes || got.VisitedNodes != want.VisitedNodes {
		t.Fatalf("retrieved %d and visited %d nodes, want %d and %d", got.RetrievedNodes, got.VisitedNodes, want.RetrievedNodes, want.VisitedNodes)
	}
	assertEqualCommunities(t, got.Communities, want.Communities)
}

func assertEqualCommunities(t *testing.T, got, want []truss.Community) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d communities, want %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; flatten(g) != flatten(w) || g.Cohesion != w.Cohesion {
			t.Fatalf("community %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestNewRejectsNilTree(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatalf("nil index should be rejected")
	}
}

// mustQuery runs a query that is not expected to fail (eager engines never
// do; lazy engines only on shard-load errors).
func mustQuery(t *testing.T, eng *Engine, q itemset.Itemset, alpha float64) *Answer {
	t.Helper()
	res, err := eng.QueryContext(context.Background(), q, alpha)
	if err != nil {
		t.Fatalf("Query(%v, %v): %v", q, alpha, err)
	}
	return res
}

func mustQueryByAlpha(t *testing.T, eng *Engine, alpha float64) *Answer {
	t.Helper()
	res, err := eng.QueryContext(context.Background(), nil, alpha)
	if err != nil {
		t.Fatalf("QueryByAlpha(%v): %v", alpha, err)
	}
	return res
}

// TestShardedMatchesSequential is the central correctness test: on a
// generated network, the sharded parallel answer must equal the
// single-threaded tctree.Query answer for every combination of worker count,
// cache configuration, query pattern and threshold.
func TestShardedMatchesSequential(t *testing.T) {
	tree := buildTestTree(t, 11)
	items := tree.Root().Children
	full := make(itemset.Itemset, 0, len(items))
	for _, c := range items {
		full = append(full, c.Item)
	}
	rng := rand.New(rand.NewSource(23))
	queries := []itemset.Itemset{nil, full, itemset.New(full[0]), itemset.New(full[0], 999)}
	for trial := 0; trial < 6; trial++ {
		var q itemset.Itemset
		for _, it := range full {
			if rng.Intn(2) == 0 {
				q = q.Add(it)
			}
		}
		queries = append(queries, q)
	}
	alphas := []float64{0, 0.1, 0.3, 1.0, treeMaxAlpha(tree), treeMaxAlpha(tree) + 1}

	for _, workers := range []int{1, 4} {
		for _, cacheSize := range []int{0, 16} {
			eng, err := New(testIndex(t, 11), Options{Workers: workers, CacheSize: cacheSize})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, q := range queries {
				for _, alpha := range alphas {
					var want *tctree.QueryResult
					if q == nil {
						want = tree.QueryByAlpha(alpha)
					} else {
						want = tree.Query(q, alpha)
					}
					// Twice: the second run exercises the cache-hit path
					// when caching is enabled.
					for rep := 0; rep < 2; rep++ {
						got := mustQuery(t, eng, q, alpha)
						assertSameAnswer(t, got, want)
					}
				}
			}
		}
	}
}

// TestDeterministicMerge checks that repeated executions (cache disabled, so
// every run re-traverses the shards in parallel) produce the same community
// order, not just the same community set.
func TestDeterministicMerge(t *testing.T) {
	eng, err := New(testIndex(t, 5), Options{Workers: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first := mustQueryByAlpha(t, eng, 0)
	for rep := 0; rep < 10; rep++ {
		assertEqualAnswers(t, mustQueryByAlpha(t, eng, 0), first)
	}
}

// TestQueryBatch checks that a batch answer equals the per-query answers, in
// request order.
func TestQueryBatch(t *testing.T) {
	tree := buildTestTree(t, 7)
	eng, err := New(testIndex(t, 7), Options{Workers: 4, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var reqs []Request
	for _, c := range tree.Root().Children {
		reqs = append(reqs,
			Request{Pattern: itemset.New(c.Item), Alpha: 0},
			Request{Pattern: nil, Alpha: 0.2},
			Request{Pattern: itemset.New(c.Item), Alpha: 0}, // repeat: cache fodder
		)
	}
	answers, err := eng.QueryBatchContext(context.Background(), reqs)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if len(answers) != len(reqs) {
		t.Fatalf("got %d answers for %d requests", len(answers), len(reqs))
	}
	for i, r := range reqs {
		var want *tctree.QueryResult
		if r.Pattern == nil {
			want = tree.QueryByAlpha(r.Alpha)
		} else {
			want = tree.Query(r.Pattern, r.Alpha)
		}
		assertSameAnswer(t, answers[i], want)
	}
	if got := eng.Stats().Batches; got != 1 {
		t.Fatalf("Batches = %d, want 1", got)
	}
}

// TestCanonicalization checks that queries differing only in items the index
// does not know about share one cache entry.
func TestCanonicalization(t *testing.T) {
	tree := buildTestTree(t, 7)
	eng, err := New(testIndex(t, 7), Options{CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first := tree.Root().Children[0].Item
	mustQuery(t, eng, itemset.New(first), 0.1)
	mustQuery(t, eng, itemset.New(first, 4096), 0.1) // 4096 is not an indexed item
	stats := eng.Stats()
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 hit and 1 miss", stats.Cache.Hits, stats.Cache.Misses)
	}
	if stats.Cache.Length != 1 {
		t.Fatalf("cache holds %d entries, want 1", stats.Cache.Length)
	}
}

// TestStats checks the counter plumbing end to end.
func TestStats(t *testing.T) {
	tree := buildTestTree(t, 7)
	eng, err := New(testIndex(t, 7), Options{Workers: 3, CacheSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stats := eng.Stats()
	if stats.Shards != eng.NumShards() || stats.Shards != len(tree.Root().Children) {
		t.Fatalf("Shards = %d, want %d", stats.Shards, len(tree.Root().Children))
	}
	if stats.Workers != 3 {
		t.Fatalf("Workers = %d, want 3", stats.Workers)
	}
	if !stats.Cache.Enabled || stats.Cache.Capacity != 2 {
		t.Fatalf("cache stats = %+v, want enabled with capacity 2", stats.Cache)
	}

	mustQueryByAlpha(t, eng, 0)   // miss
	mustQueryByAlpha(t, eng, 0)   // hit
	mustQueryByAlpha(t, eng, 0.1) // miss
	mustQueryByAlpha(t, eng, 0.2) // miss, evicts the α=0 entry
	mustQueryByAlpha(t, eng, 0)   // miss again
	stats = eng.Stats()
	if stats.Queries != 5 {
		t.Fatalf("Queries = %d, want 5", stats.Queries)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 4 || stats.Cache.Evictions < 1 {
		t.Fatalf("cache counters = %+v, want 1 hit, 4 misses, ≥1 eviction", stats.Cache)
	}

	// Disabled cache: every repeat re-executes, counters stay zero.
	uncached, err := New(testIndex(t, 7), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustQueryByAlpha(t, uncached, 0)
	mustQueryByAlpha(t, uncached, 0)
	stats = uncached.Stats()
	if stats.Cache.Enabled || stats.Cache.Hits != 0 || stats.Cache.Misses != 0 {
		t.Fatalf("disabled cache has stats %+v", stats.Cache)
	}
}

// TestCancelledBatchStopsWaitingForASlot holds every slot of the batch pool
// and runs a batch under a cancelled context: each query must fail with the
// context's error at once, not wait for a slot that frees only when the test
// ends.
func TestCancelledBatchStopsWaitingForASlot(t *testing.T) {
	eng, err := New(testIndex(t, 7), Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < cap(eng.batchSem); i++ {
		eng.batchSem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(eng.batchSem); i++ {
			<-eng.batchSem
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := eng.QueryBatchContext(ctx, []Request{{Alpha: 0}, {Alpha: 0.1}, {Alpha: 0.2}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("QueryBatchContext under a cancelled context: %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a batch under a cancelled context is still waiting for a slot after 1s")
	}
}
