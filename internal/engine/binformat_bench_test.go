package engine

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// benchIndex writes the tree of nw as an index directory, opens it, and
// returns the handle with the written manifest.
func benchIndex(b *testing.B, nw *dbnet.Network) (*tctree.ShardedIndex, *tctree.Manifest) {
	b.Helper()
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		b.Fatal("empty benchmark tree")
	}
	dir := b.TempDir()
	m, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN)
	if err != nil {
		b.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		b.Fatalf("OpenSharded: %v", err)
	}
	return idx, m
}

// BenchmarkColdStart measures the cold query path: build a lazy engine over
// an already-opened index and answer one selective single-shard query, so
// every iteration pays a cold shard load — mapping the file, validating it
// and traversing it in place. The network has one huge shard, so the load
// dominates.
func BenchmarkColdStart(b *testing.B) {
	idx, m := benchIndex(b, randomNetwork(rand.New(rand.NewSource(23)), 160, 3200, 8, 12))
	hot := m.Shards[0]
	for _, e := range m.Shards {
		if e.Nodes > hot.Nodes {
			hot = e
		}
	}
	q := itemset.New(itemset.Item(hot.Item))
	// Query just under the shard's α* so the answer set is tiny: the cost
	// that remains is loading the cold shard and walking it.
	alphaQ := hot.MaxAlpha * 0.9
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewLazy(idx, Options{})
		if err != nil {
			b.Fatalf("NewLazy: %v", err)
		}
		res, err := eng.QueryContext(context.Background(), q, alphaQ)
		if err != nil {
			b.Fatalf("Query: %v", err)
		}
		if res.RetrievedNodes == 0 {
			b.Fatal("selective query retrieved nothing")
		}
	}
}

// benchSkewNetwork builds a synthetic multi-item network whose blocks have
// decreasing edge density, so the per-shard α* bounds spread out and a
// selective (high-α_q) query can skip the sparse shards from the manifest
// alone.
func benchSkewNetwork() *dbnet.Network {
	rng := rand.New(rand.NewSource(17))
	const blocks, blockSize = 8, 48
	nw := dbnet.New(blocks * blockSize)
	for blk := 0; blk < blocks; blk++ {
		base := blk * blockSize
		density := 0.9 - 0.8*float64(blk)/float64(blocks-1)
		for u := 0; u < blockSize; u++ {
			for v := u + 1; v < blockSize; v++ {
				if rng.Float64() < density {
					nw.MustAddEdge(graph.VertexID(base+u), graph.VertexID(base+v))
				}
			}
			if err := nw.AddTransaction(graph.VertexID(base+u), itemset.New(itemset.Item(blk))); err != nil {
				panic(err)
			}
		}
	}
	return nw
}

// BenchmarkPlannerSkip pins the planner's data-skipping wins on a cold lazy
// engine, planner on against planner off; both arms return identical
// answers, and besides ns/op each reports shard-loads/op — the shard files
// opened per query — which the planner must keep strictly below the
// planner-off engine's.
//
//   - alpha-skip: a full-pattern query at the median per-shard α* bound over
//     an index with skewed bounds; roughly half the shards are answered
//     from the manifest alone.
//   - catalogue: a containment query for the largest top-level item over
//     many sparse shards, so every shard is a candidate to hold a superset;
//     the planner prunes every shard whose bloom filter proves the item
//     appears in none of its patterns.
func BenchmarkPlannerSkip(b *testing.B) {
	arms := func(idx *tctree.ShardedIndex, query func(*Engine) (*Answer, error)) func(*testing.B) {
		return func(b *testing.B) {
			want := -1
			for _, planner := range []bool{true, false} {
				name := "planner=on"
				if !planner {
					name = "planner=off"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					loads := uint64(0)
					for i := 0; i < b.N; i++ {
						eng, err := NewLazy(idx, Options{Workers: 4})
						if err != nil {
							b.Fatalf("NewLazy: %v", err)
						}
						if !planner {
							unplanned(eng)
						}
						res, err := query(eng)
						if err != nil {
							b.Fatalf("query: %v", err)
						}
						if want == -1 {
							want = res.RetrievedNodes
						} else if res.RetrievedNodes != want {
							b.Fatalf("arms disagree: retrieved %d trusses, want %d", res.RetrievedNodes, want)
						}
						loads += eng.Stats().LazyLoads
					}
					b.ReportMetric(float64(loads)/float64(b.N), "shard-loads/op")
				})
			}
		}
	}

	skewIdx, skew := benchIndex(b, benchSkewNetwork())
	alphas := make([]float64, 0, len(skew.Shards))
	for _, e := range skew.Shards {
		alphas = append(alphas, e.MaxAlpha)
	}
	sort.Float64s(alphas)
	alphaQ := alphas[len(alphas)/2]
	b.Run("alpha-skip", arms(skewIdx, func(e *Engine) (*Answer, error) {
		return e.QueryContext(context.Background(), nil, alphaQ)
	}))

	sparseIdx, sparse := benchIndex(b, randomNetwork(rand.New(rand.NewSource(23)), 64, 320, 24, 4))
	last := itemset.New(itemset.Item(sparse.Shards[len(sparse.Shards)-1].Item))
	b.Run("catalogue", arms(sparseIdx, func(e *Engine) (*Answer, error) {
		return e.QueryContainingContext(context.Background(), last, 0)
	}))
}
