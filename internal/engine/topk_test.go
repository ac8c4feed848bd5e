package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// bestK is the reference ranking the ranked execution is held to: the k
// communities of a full answer that order first under lessRanked, in that
// order (k <= 0: all of them), leaving comms untouched. lessRanked is a
// strict total order on the communities of one answer, so selecting is the
// same as sorting everything and truncating; it keeps a heap of k records
// with the worst of them on top and looks at every other record once.
func bestK(comms []truss.Community, k int) []truss.Community {
	if k <= 0 || k >= len(comms) {
		out := slices.Clone(comms)
		slices.SortFunc(out, compareRanked)
		return out
	}
	worse := func(a, b *truss.Community) bool { return lessRanked(b, a) }
	best := make([]*truss.Community, k)
	for i := range best {
		best[i] = &comms[i]
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(best, i, worse)
	}
	for i := k; i < len(comms); i++ {
		if c := &comms[i]; lessRanked(c, best[0]) {
			best[0] = c
			siftDown(best, 0, worse)
		}
	}
	out := make([]truss.Community, k)
	for i, c := range best {
		out[i] = *c
	}
	slices.SortFunc(out, compareRanked)
	return out
}

// assertRankedOracle holds every ranked path of the engine — the top-k and a
// drained ranked stream — to bestK over QueryContext's full answer, record
// for record, and requires the ranked execution to retrieve no more than the
// full one. It returns the top-k's answer.
func assertRankedOracle(t testing.TB, eng *Engine, q itemset.Itemset, alpha float64, k int) *Answer {
	t.Helper()
	ctx := context.Background()
	full, err := eng.QueryContext(ctx, q, alpha)
	if err != nil {
		t.Fatalf("QueryContext(%v, %v): %v", q, alpha, err)
	}
	want := bestK(full.Communities, k)
	res, got, err := eng.TopKWithResultContext(ctx, q, alpha, k)
	if err != nil {
		t.Fatalf("TopKWithResultContext(%v, %v, %d): %v", q, alpha, k, err)
	}
	if err := sameRanked(got, want); err != nil {
		t.Fatalf("TopKWithResultContext(%v, %v, %d): %v", q, alpha, k, err)
	}
	if res.RetrievedNodes > full.RetrievedNodes || res.VisitedNodes > full.VisitedNodes {
		t.Fatalf("top-%d retrieved %d and visited %d nodes, the full answer %d and %d",
			k, res.RetrievedNodes, res.VisitedNodes, full.RetrievedNodes, full.VisitedNodes)
	}
	st, err := eng.StreamTopK(ctx, q, alpha, k)
	if err != nil {
		t.Fatalf("StreamTopK: %v", err)
	}
	defer st.Close()
	var streamed []truss.Community
	for {
		rc, err := st.Next()
		if err != nil {
			t.Fatalf("StreamTopK(%v, %v, %d).Next: %v", q, alpha, k, err)
		}
		if rc == nil {
			break
		}
		streamed = append(streamed, *rc)
	}
	if err := sameRanked(streamed, want); err != nil {
		t.Fatalf("StreamTopK(%v, %v, %d): %v", q, alpha, k, err)
	}
	return res
}

// sameRanked compares two ranked lists record for record, cohesions bit for
// bit.
func sameRanked(got, want []truss.Community) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d communities, the reference ranks %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; flatten(g) != flatten(w) || g.Cohesion != w.Cohesion {
			return fmt.Errorf("community %d = %+v, the reference ranks %+v", i, g, w)
		}
	}
	return nil
}

// rankedAlphas and rankedKs are the oracle grid; a k beyond the answer is
// added per query.
var (
	rankedAlphas = []float64{0, 0.1, 0.5, 1, 2, 3}
	rankedKs     = []int{1, 3, 10, 100}
)

// TestRankedTopKMatchesReference is the oracle of the ranked execution: on
// random networks (eager and lazy, every item and a random pattern) and on
// the four generated datasets at small scale, the top-k and the drained
// ranked stream equal bestK over the full answer for every α and k of the
// grid.
func TestRankedTopKMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tree := buildTestTree(t, seed)
		idx, _ := writeShardedTestTree(t, tree)
		eager, err := New(testIndex(t, seed), Options{Workers: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		lazy, err := NewLazy(idx, Options{Workers: 2, MaxResidentShards: 2})
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		var q itemset.Itemset
		for _, c := range tree.Root().Children {
			if rng.Intn(2) == 0 {
				q = q.Add(c.Item)
			}
		}
		for _, eng := range []*Engine{eager, lazy} {
			for _, pattern := range []itemset.Itemset{nil, q} {
				checkRankedGrid(t, eng, pattern)
			}
		}
	}
	for _, name := range []string{"AMINER", "BK", "GW", "SYN"} {
		t.Run(name, func(t *testing.T) {
			ds, err := gen.ByName(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(builtIndex(t, ds.Network), Options{Workers: 2})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			checkRankedGrid(t, eng, nil)
		})
	}
}

// checkRankedGrid runs the oracle over the α and k grid for one query.
func checkRankedGrid(t *testing.T, eng *Engine, q itemset.Itemset) {
	t.Helper()
	for _, alpha := range rankedAlphas {
		beyond := len(mustQuery(t, eng, q, alpha).Communities) + 1
		for _, k := range append(rankedKs, beyond) {
			assertRankedOracle(t, eng, q, alpha, k)
		}
	}
}

// TestRankedTopKPrunes pins what the α* bound buys on the served dataset:
// at AMINER 0.5, α = 0.5, a top-10 retrieves at most 5 % of the nodes the
// full query retrieves, and answers what the reference ranks.
func TestRankedTopKPrunes(t *testing.T) {
	eng, _ := lazyAMinerEngine(t, 0.5, Options{Workers: 2})
	full := mustQueryByAlpha(t, eng, 0.5)
	res := assertRankedOracle(t, eng, nil, 0.5, 10)
	if res.RetrievedNodes*20 > full.RetrievedNodes {
		t.Fatalf("top-10 retrieved %d of the full query's %d nodes, want at most 5 %%", res.RetrievedNodes, full.RetrievedNodes)
	}
	t.Logf("top-10 retrieved %d of %d nodes", res.RetrievedNodes, full.RetrievedNodes)
}

// TestRankedTopKUnboundedK: k has no upper bound on the wire, so a top-k with
// k = math.MaxInt must cost what ranking the whole answer costs — nothing
// may be sized by k.
func TestRankedTopKUnboundedK(t *testing.T) {
	eng, err := New(testIndex(t, 11), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	all := len(mustQueryByAlpha(t, eng, 0).Communities)
	allocated := func(k int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ranked, err := eng.TopKWithResultContext(context.Background(), nil, 0, k)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("TopK(k=%d): %v", k, err)
		}
		if len(ranked) != all {
			t.Fatalf("TopK(k=%d) ranked %d communities, want all %d", k, len(ranked), all)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	exact, unbounded := allocated(all), allocated(math.MaxInt)
	if unbounded > 2*exact+64<<10 {
		t.Fatalf("TopK(k=MaxInt) allocated %d bytes, TopK(k=%d) %d", unbounded, all, exact)
	}
	assertRankedOracle(t, eng, nil, 0, math.MaxInt)
}

// FuzzRankedTopK: for any network seed, α and k, the ranked answer is the
// reference ranking of the full answer.
func FuzzRankedTopK(f *testing.F) {
	for _, seed := range []int64{1, 3, 7, 11} {
		for _, alpha := range []float64{0, 0.3, 1} {
			f.Add(seed, alpha, 1)
			f.Add(seed, alpha, 4)
		}
	}
	f.Add(int64(25), 0.0, math.MaxInt)
	f.Add(int64(2), 0.1, 0)
	f.Fuzz(func(t *testing.T, seed int64, alpha float64, k int) {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return
		}
		// Thresholds past the largest bound all answer nothing; fold α into
		// the range where answers differ.
		alpha = math.Mod(math.Abs(alpha), 4)
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng, 12+rng.Intn(12), 20+rng.Intn(40), 3+rng.Intn(4), 4)
		idx, err := tctree.BuildIndex(nw, tctree.BuildOptions{})
		if err != nil {
			t.Fatalf("BuildIndex: %v", err)
		}
		if idx.NumNodes() == 0 {
			return
		}
		eng, err := New(idx, Options{Workers: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		assertRankedOracle(t, eng, nil, alpha, k)
	})
}

// TestTopKRanking checks the ranking invariants on a generated network: the
// answer is sorted best-first, truncation returns a prefix, and every
// reported cohesion is consistent with the decomposition it was derived from.
func TestTopKRanking(t *testing.T) {
	tree := buildTestTree(t, 11)
	eng, err := New(testIndex(t, 11), Options{Workers: 4, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	alphaQ := 0.0
	_, all, err := eng.TopKWithResultContext(context.Background(), nil, alphaQ, 0)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(all) == 0 {
		t.Fatalf("expected at least one community")
	}
	for i := 1; i < len(all); i++ {
		if lessRanked(&all[i], &all[i-1]) {
			t.Fatalf("communities %d and %d are out of order", i-1, i)
		}
	}
	for i, rc := range all {
		if rc.Cohesion <= alphaQ {
			t.Fatalf("community %d has cohesion %g ≤ α_q = %g", i, rc.Cohesion, alphaQ)
		}
		var node *tctree.Node
		tree.Walk(func(n *tctree.Node) {
			if n.Pattern.Equal(rc.Pattern) {
				node = n
			}
		})
		if node == nil {
			t.Fatalf("community %d has unindexed pattern %v", i, rc.Pattern)
		}
		// The record names a component of the pattern's truss at α_q: the
		// edges of that truss on its vertices are exactly its edges.
		edges := make(graph.EdgeSet)
		for _, e := range node.Decomp.EdgesAt(alphaQ) {
			if _, ok := slices.BinarySearch(rc.Vertices, e.U); ok {
				edges.Add(e)
			}
		}
		if rc.Edges != edges.Len() || !slices.Equal(rc.Vertices, edges.Vertices()) {
			t.Fatalf("community %d = %+v is not a component of its truss at α_q", i, rc)
		}
		// Raising the threshold to the reported cohesion must remove at
		// least one of the community's edges from the pattern's truss, and
		// no lower threshold may.
		if edges.SubsetOf(node.Decomp.EdgesAt(rc.Cohesion)) {
			t.Fatalf("community %d survives intact at its own cohesion %g", i, rc.Cohesion)
		}
		if !edges.SubsetOf(node.Decomp.EdgesAt(rc.Cohesion - 1e-6)) {
			t.Fatalf("community %d loses an edge below its cohesion %g", i, rc.Cohesion)
		}
	}

	for _, k := range []int{1, 2, 3, len(all) / 2, len(all) - 1, len(all), len(all) + 5} {
		_, topK, err := eng.TopKWithResultContext(context.Background(), nil, alphaQ, k)
		if err != nil {
			t.Fatalf("TopK(k=%d): %v", k, err)
		}
		wantLen := k
		if k > len(all) {
			wantLen = len(all)
		}
		if len(topK) != wantLen {
			t.Fatalf("TopK(k=%d) returned %d communities, want %d", k, len(topK), wantLen)
		}
		// The bounded selection must be the prefix a full sort leaves.
		assertEqualCommunities(t, topK, all[:wantLen])
	}
	if got := eng.Stats().TopKQueries; got == 0 {
		t.Fatalf("TopKQueries counter not incremented")
	}
}

// TestTopKPaperExample sanity-checks top-k on the worked example of the
// paper: querying pattern p at α_q = 0.1 yields exactly the two theme
// communities of Figure 2, and k = 1 keeps the more cohesive one.
func TestTopKPaperExample(t *testing.T) {
	eng, err := New(builtIndex(t, dbnet.PaperExample()), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, all, err := eng.TopKWithResultContext(context.Background(), dbnet.PaperExampleP, 0.1, 0)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	count := 0
	for _, rc := range all {
		if rc.Pattern.Equal(dbnet.PaperExampleP) {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("pattern p contributes %d communities at α=0.1, want 2", count)
	}
	_, best, err := eng.TopKWithResultContext(context.Background(), dbnet.PaperExampleP, 0.1, 1)
	if err != nil {
		t.Fatalf("TopK(1): %v", err)
	}
	if len(best) != 1 {
		t.Fatalf("TopK(1) returned %d communities", len(best))
	}
	if best[0].Cohesion < all[len(all)-1].Cohesion {
		t.Fatalf("TopK(1) did not keep the most cohesive community")
	}
}

// TestTopKAccounting pins how a top-k is counted: in TopKQueries and Queries,
// not in Streams; it neither reads nor fills the result cache; it is observed
// once, with a zero stream stage and stages within its total; and the shards
// its floor left unopened are credited as short-circuited.
func TestTopKAccounting(t *testing.T) {
	rec := &captureRecorder{}
	eng, err := New(testIndex(t, 7), Options{CacheSize: 8, Recorder: rec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for range 2 {
		if _, _, err := eng.TopKWithResultContext(context.Background(), nil, 0, 1); err != nil {
			t.Fatalf("TopK: %v", err)
		}
	}
	stats := eng.Stats()
	if stats.TopKQueries != 2 || stats.Queries != 2 || stats.Streams != 0 {
		t.Fatalf("TopKQueries = %d, Queries = %d, Streams = %d; want 2, 2, 0", stats.TopKQueries, stats.Queries, stats.Streams)
	}
	if c := stats.Cache; c.Hits != 0 || c.Misses != 0 || c.Length != 0 {
		t.Fatalf("a top-k touched the result cache: %+v", c)
	}
	got := rec.all()
	if len(got) != 2 {
		t.Fatalf("observations = %d, want 2", len(got))
	}
	short := 0
	for _, o := range got {
		if o.Pattern != "*" || o.Err || o.Stream != 0 {
			t.Fatalf("observation = %+v, want a successful query by alpha with no stream stage", o)
		}
		if o.Plan+o.Execute+o.Merge > o.Total {
			t.Fatalf("stages plan %v + execute %v + merge %v exceed the total %v", o.Plan, o.Execute, o.Merge, o.Total)
		}
		short += o.ShortCircuited
	}
	if uint64(short) != stats.ShardsShortCircuited {
		t.Fatalf("observed %d short-circuited shards, the engine counts %d", short, stats.ShardsShortCircuited)
	}
}
