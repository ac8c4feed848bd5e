package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// randomDeltaFor builds a random valid delta against nw: new edges, removed
// existing edges, new transactions (sometimes introducing a new item),
// sometimes a new connected vertex.
func randomDeltaFor(rng *rand.Rand, nw *dbnet.Network, items int) *delta.Delta {
	d := &delta.Delta{}
	n := nw.NumVertices()
	if rng.Intn(3) == 0 {
		d.AddVertices = 1
		d.AddEdges = append(d.AddEdges, graph.EdgeOf(graph.VertexID(rng.Intn(n)), graph.VertexID(n)))
		d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{
			Vertex: graph.VertexID(n), Tx: itemset.New(itemset.Item(rng.Intn(items))),
		})
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			d.AddEdges = append(d.AddEdges, graph.EdgeOf(a, b))
		}
	}
	if edges := nw.Graph().Edges(); len(edges) > 0 {
		d.RemoveEdges = append(d.RemoveEdges, edges[rng.Intn(len(edges))])
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		it := itemset.Item(rng.Intn(items))
		if rng.Intn(4) == 0 {
			it = itemset.Item(items + rng.Intn(2))
		}
		d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{
			Vertex: graph.VertexID(rng.Intn(n)), Tx: itemset.New(it, itemset.Item(rng.Intn(items))),
		})
	}
	return d
}

// applyDelta is the engine's half of an update checkpointed at once: the
// delta is applied in memory and checkpointed, keeping the manifest's journal
// seq (replication.Primary adds the journal and the network write-back). On
// an engine without an on-disk index the checkpoint has nothing to do.
func applyDelta(t testing.TB, eng *Engine, nw *dbnet.Network, d *delta.Delta) *DeltaResult {
	t.Helper()
	res, err := eng.ApplyDeltaInMemory(nw, d)
	if err != nil {
		t.Fatalf("ApplyDeltaInMemory: %v", err)
	}
	if _, err := eng.Checkpoint(eng.IndexJournalSeq(), nil); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return res
}

// deltaTestQueries is the query mix the parity tests compare: query-by-alpha,
// narrow patterns, wide patterns, across several thresholds.
func deltaTestQueries() []Request {
	return []Request{
		{Pattern: nil, Alpha: 0},
		{Pattern: nil, Alpha: 0.15},
		{Pattern: itemset.New(0), Alpha: 0},
		{Pattern: itemset.New(1, 2), Alpha: 0.1},
		{Pattern: itemset.New(0, 1, 2, 3, 4, 5, 6), Alpha: 0},
		{Pattern: itemset.New(3), Alpha: 0.3},
	}
}

// TestApplyDeltaParity is the serving-layer half of the acceptance
// criterion, as a table over eager and lazy engines and several generated
// networks/deltas: an update then query must match a from-scratch rebuild
// then query, answer for answer.
func TestApplyDeltaParity(t *testing.T) {
	const items = 5
	for _, mode := range []string{"eager", "lazy"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(mode, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				nw := randomNetwork(rng, 14, 34, items, 3)
				// An identically generated twin for the from-scratch rebuild.
				twin := randomNetwork(rand.New(rand.NewSource(seed)), 14, 34, items, 3)
				tree := tctree.Build(nw, tctree.BuildOptions{})
				if tree.NumNodes() == 0 {
					t.Skip("empty tree for this seed")
				}

				var eng *Engine
				var err error
				if mode == "eager" {
					eng, err = New(builtIndex(t, nw), Options{CacheSize: 64})
				} else {
					dir := t.TempDir()
					if _, werr := tree.WriteShardedAs(dir, tctree.FormatTCBIN); werr != nil {
						t.Fatalf("WriteShardedAs: %v", werr)
					}
					idx, oerr := tctree.OpenSharded(dir)
					if oerr != nil {
						t.Fatalf("OpenSharded: %v", oerr)
					}
					eng, err = NewLazy(idx, Options{CacheSize: 64, MaxResidentShards: 3})
				}
				if err != nil {
					t.Fatalf("engine: %v", err)
				}

				// Warm the cache so the delta's invalidation is exercised.
				for _, q := range deltaTestQueries() {
					if _, err := eng.QueryContext(context.Background(), q.Pattern, q.Alpha); err != nil {
						t.Fatalf("pre-delta query: %v", err)
					}
				}

				d := randomDeltaFor(rng, nw, items)
				res := applyDelta(t, eng, nw, d)
				if res.Epoch == 0 || eng.IndexEpoch() != res.Epoch {
					t.Fatalf("epoch not bumped: result %d, engine %d", res.Epoch, eng.IndexEpoch())
				}

				if err := delta.Apply(twin, d); err != nil {
					t.Fatalf("Apply on twin: %v", err)
				}
				fresh, err := New(builtIndex(t, twin), Options{})
				if err != nil {
					t.Fatalf("fresh engine: %v", err)
				}
				if got, want := eng.NumShards(), fresh.NumShards(); got != want {
					t.Fatalf("NumShards = %d, fresh rebuild %d", got, want)
				}
				if got, want := eng.NumNodes(), fresh.NumNodes(); got != want {
					t.Fatalf("NumNodes = %d, fresh rebuild %d", got, want)
				}
				for _, q := range deltaTestQueries() {
					got, err := eng.QueryContext(context.Background(), q.Pattern, q.Alpha)
					if err != nil {
						t.Fatalf("post-delta query: %v", err)
					}
					want, err := fresh.QueryContext(context.Background(), q.Pattern, q.Alpha)
					if err != nil {
						t.Fatalf("fresh query: %v", err)
					}
					assertEqualCommunities(t, got.Communities, want.Communities)

					_, gotK, err := eng.TopKWithResultContext(context.Background(), q.Pattern, q.Alpha, 5)
					if err != nil {
						t.Fatalf("post-delta TopK: %v", err)
					}
					_, wantK, err := fresh.TopKWithResultContext(context.Background(), q.Pattern, q.Alpha, 5)
					if err != nil {
						t.Fatalf("fresh TopK: %v", err)
					}
					if !reflect.DeepEqual(gotK, wantK) {
						t.Fatalf("TopK diverges after the update:\n got %v\nwant %v", gotK, wantK)
					}
				}
			})
		}
	}
}

// TestApplyDeltaSelective pins the efficiency claim: a delta touching one
// vertex rebuilds strictly fewer shards than the index holds.
func TestApplyDeltaSelective(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(rng, 40, 260, 20, 3)
	tree := tctree.Build(nw, tctree.BuildOptions{})
	dir := t.TempDir()
	if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	total := eng.NumShards()
	d := &delta.Delta{AddTransactions: []delta.VertexTransaction{
		{Vertex: 0, Tx: itemset.New(nw.Items()[0])},
	}}
	res := applyDelta(t, eng, nw, d)
	if res.Affected.Len() == 0 || res.Affected.Len() >= total {
		t.Fatalf("one-vertex delta affected %d of %d shards; want a strict subset", res.Affected.Len(), total)
	}
	touched := res.Report.Touched()
	if touched.Len() > res.Affected.Len() {
		t.Fatalf("commit touched %d shards, more than the %d affected", touched.Len(), res.Affected.Len())
	}
}

// TestApplyDeltaRejectsDepthBoundedIndex pins the MaxDepth guard: an index
// built with a depth bound cannot be incrementally maintained (the rebuild
// is unbounded and would make rebuilt shards deeper than untouched ones).
func TestApplyDeltaRejectsDepthBoundedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nw := randomNetwork(rng, 16, 40, 5, 4)
	bounded, err := tctree.BuildIndex(nw, tctree.BuildOptions{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := &delta.Delta{AddTransactions: []delta.VertexTransaction{{Vertex: 0, Tx: itemset.New(0)}}}

	eager, err := New(bounded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eager.ApplyDeltaInMemory(nw, d); err == nil {
		t.Fatalf("eager ApplyDeltaInMemory accepted a depth-bounded index")
	}

	dir := t.TempDir()
	if _, err := bounded.Write(dir); err != nil {
		t.Fatal(err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Manifest().BuiltMaxDepth; got != 2 {
		t.Fatalf("manifest BuiltMaxDepth = %d, want 2", got)
	}
	lazy, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.ApplyDeltaInMemory(nw, d); err == nil {
		t.Fatalf("lazy ApplyDeltaInMemory accepted a depth-bounded index")
	}
}

// TestApplyDeltaConcurrentQueries runs queries and top-k rankings while a
// delta lands mid-flight and asserts every answer is entirely pre-delta or
// entirely post-delta — never a mix of old and new shards. Run it with
// -race: it is also the data-race proof for the swap path.
func TestApplyDeltaConcurrentQueries(t *testing.T) {
	const items = 5
	rng := rand.New(rand.NewSource(11))
	nw := randomNetwork(rng, 14, 34, items, 3)
	twinPre := randomNetwork(rand.New(rand.NewSource(11)), 14, 34, items, 3)
	twinPost := randomNetwork(rand.New(rand.NewSource(11)), 14, 34, items, 3)
	d := randomDeltaFor(rng, nw, items)

	// Reference answers from independent engines on the pre- and post-delta
	// networks.
	preEng, err := New(builtIndex(t, twinPre), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.Apply(twinPost, d); err != nil {
		t.Fatal(err)
	}
	postEng, err := New(builtIndex(t, twinPost), Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := deltaTestQueries()
	type refAnswer struct {
		pre, post   map[itemset.Key]int // pattern -> edge count, an order-free fingerprint
		preK, postK []truss.Community
	}
	refs := make([]refAnswer, len(queries))
	fingerprint := func(e *Engine, q Request) map[itemset.Key]int {
		res, err := e.QueryContext(context.Background(), q.Pattern, q.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[itemset.Key]int)
		for _, c := range res.Communities {
			out[c.Pattern.Key()] += c.Edges
		}
		return out
	}
	for i, q := range queries {
		refs[i].pre = fingerprint(preEng, q)
		refs[i].post = fingerprint(postEng, q)
		if _, refs[i].preK, err = preEng.TopKWithResultContext(context.Background(), q.Pattern, q.Alpha, 4); err != nil {
			t.Fatal(err)
		}
		if _, refs[i].postK, err = postEng.TopKWithResultContext(context.Background(), q.Pattern, q.Alpha, 4); err != nil {
			t.Fatal(err)
		}
	}

	for _, mode := range []string{"eager", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			// Fresh engine and fresh mutable network per mode: an update
			// mutates both.
			liveNw := randomNetwork(rand.New(rand.NewSource(11)), 14, 34, items, 3)
			liveTree := tctree.Build(liveNw, tctree.BuildOptions{})
			var eng *Engine
			var err error
			if mode == "eager" {
				eng, err = New(builtIndex(t, liveNw), Options{CacheSize: 128})
			} else {
				dir := t.TempDir()
				if _, werr := liveTree.WriteShardedAs(dir, tctree.FormatTCBIN); werr != nil {
					t.Fatal(werr)
				}
				idx, oerr := tctree.OpenSharded(dir)
				if oerr != nil {
					t.Fatal(oerr)
				}
				eng, err = NewLazy(idx, Options{CacheSize: 128, MaxResidentShards: 3})
			}
			if err != nil {
				t.Fatal(err)
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						q := queries[(i+w)%len(queries)]
						ref := refs[(i+w)%len(queries)]
						if i%3 == 0 {
							_, ranked, err := eng.TopKWithResultContext(context.Background(), q.Pattern, q.Alpha, 4)
							if err != nil {
								errs <- err
								return
							}
							if !reflect.DeepEqual(ranked, ref.preK) && !reflect.DeepEqual(ranked, ref.postK) {
								t.Errorf("TopK answer is neither pre- nor post-delta: %v", ranked)
								return
							}
							continue
						}
						res, err := eng.QueryContext(context.Background(), q.Pattern, q.Alpha)
						if err != nil {
							errs <- err
							return
						}
						got := make(map[itemset.Key]int)
						for _, c := range res.Communities {
							got[c.Pattern.Key()] += c.Edges
						}
						if !reflect.DeepEqual(got, ref.pre) && !reflect.DeepEqual(got, ref.post) {
							t.Errorf("query answer is neither pre- nor post-delta: %v", got)
							return
						}
					}
				}(w)
			}
			applyDelta(t, eng, liveNw, d)
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("concurrent query: %v", err)
			}
			// After the delta every answer must be post-delta.
			for i, q := range queries {
				got := fingerprint(eng, q)
				if !reflect.DeepEqual(got, refs[i].post) {
					t.Fatalf("post-delta answer diverges for query %d: %v, want %v", i, got, refs[i].post)
				}
			}
			if eng.Stats().DeltasApplied != 1 {
				t.Fatalf("DeltasApplied = %d, want 1", eng.Stats().DeltasApplied)
			}
		})
	}
}

// TestApplyDeltaCacheRace provokes the swap/query interleaving the epoch
// gate closes: queries against one shard run full tilt while deltas flip that
// shard between two states. After every delta, the next cached answer must
// reflect the new shard — a query that computed against the old shard must
// never park its stale result in the cache past the purge.
func TestApplyDeltaCacheRace(t *testing.T) {
	nw, without := testNetwork(13), testNetwork(13)
	item := nw.Items()[0]
	tri := triangleDelta(nw, item)
	if err := delta.Apply(nw, tri); err != nil {
		t.Fatal(err)
	}
	// The two states: the triangle whole, and broken by removing one edge of
	// it (which takes all three edges out of the item's truss).
	toggles := []*delta.Delta{{RemoveEdges: tri.AddEdges[:1]}, {AddEdges: tri.AddEdges[:1]}}
	q := itemset.New(item)
	// Communities partition the edges of their truss: the two sides count
	// the same edges.
	edges := func(res *Answer) (n int) {
		for _, c := range res.Communities {
			n += c.Edges
		}
		return n
	}
	refEdges := func(res *tctree.QueryResult) (n int) {
		for _, tr := range res.Trusses {
			n += tr.Edges.Len()
		}
		return n
	}
	tree := tctree.Build(nw, tctree.BuildOptions{})
	wantEdges := []int{refEdges(tree.Query(q, 0)), refEdges(tctree.Build(without, tctree.BuildOptions{}).Query(q, 0))}
	if wantEdges[0] != wantEdges[1]+3 {
		t.Fatalf("states have %d and %d edges; the triangle should account for exactly 3", wantEdges[0], wantEdges[1])
	}

	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := eng.QueryContext(context.Background(), q, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		applyDelta(t, eng, nw, toggles[i%2])
		// The very next answer — cached or executed — must be the new shard's.
		res, err := eng.QueryContext(context.Background(), q, 0)
		if err != nil {
			t.Fatalf("post-delta query: %v", err)
		}
		if got, want := edges(res), wantEdges[(i+1)%2]; got != want {
			t.Fatalf("iteration %d: post-delta answer has %d edges, want %d (stale cache entry served)", i, got, want)
		}
	}
	stop.Store(true)
	wg.Wait()
	if eng.IndexEpoch() != 40 {
		t.Fatalf("IndexEpoch = %d, want 40", eng.IndexEpoch())
	}
}

// BenchmarkDeltaFullRebuild is the baseline an incremental update replaces (see
// BenchmarkApplyDelta): apply a small delta, then rebuild and rewrite the
// whole index from scratch.
func BenchmarkDeltaFullRebuild(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(rng, 40, 260, 20, 3)
	tree := tctree.Build(nw, tctree.BuildOptions{})
	dir := b.TempDir()
	if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		b.Fatal(err)
	}
	items := nw.Items()
	b.ResetTimer()
	var rebuilt int
	for i := 0; i < b.N; i++ {
		d := &delta.Delta{AddTransactions: []delta.VertexTransaction{
			{Vertex: graph.VertexID(i % nw.NumVertices()), Tx: itemset.New(items[i%items.Len()])},
		}}
		if err := delta.Apply(nw, d); err != nil {
			b.Fatal(err)
		}
		fresh := tctree.Build(nw, tctree.BuildOptions{})
		if _, err := fresh.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
			b.Fatal(err)
		}
		rebuilt += len(fresh.Root().Children)
	}
	b.ReportMetric(float64(rebuilt)/float64(b.N), "shardrebuilds/op")
}
