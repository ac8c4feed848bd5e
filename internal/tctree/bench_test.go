package tctree

import (
	"sort"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// The layer benchmarks of the mining kernel, on the datasets and shapes the
// served-path benchmark (cmd/tcload) uses, so a kernel change can be measured
// here before it is measured end to end.

var (
	benchShards map[itemset.Item]*EncodedShard
	benchTree   *Tree
	benchIndex  *Index
)

// medianCostVertex returns the vertex whose update costs the median: an
// update on a vertex rebuilds the shard of every item the vertex carries, so
// its cost is roughly the node count of those shards.
func medianCostVertex(tree *Tree, nw *dbnet.Network) graph.VertexID {
	shardNodes := make(map[itemset.Item]int)
	for _, st := range tree.ShardStats() {
		shardNodes[st.Item] = st.Nodes
	}
	type candidate struct {
		vertex graph.VertexID
		weight int
	}
	var cands []candidate
	for v := 0; v < nw.NumVertices(); v++ {
		c := candidate{vertex: graph.VertexID(v)}
		for _, it := range nw.Database(c.vertex).Items() {
			c.weight += shardNodes[it]
		}
		cands = append(cands, c)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].weight < cands[j].weight })
	return cands[len(cands)/2].vertex
}

// BenchmarkRebuildSubtrees measures what one update pays to rebuild its
// shards, on the two datasets the served-path benchmark updates: BK at scale
// 1 (mixed-rw: 37 small shards) and AMINER at scale 0.5 (the read workloads'
// update tail: about a dozen shards of several hundred nodes each). The
// update is tcload's: one transaction of three items the vertex already
// carries, appended to a median-cost vertex. "full" re-mines every affected
// shard; "scoped" is what the engine runs — the previous shards held open as
// TCBIN bytes, as a server holds them, only the patterns inside the delta's
// scope re-mined and the rest of each shard copied across as bytes. Both end
// with the encoded shards (RebuildScoped).
//
// tcload's -trace 1 rung tctree.rebuild_ms keeps timing the full
// RebuildSubtrees(nw, items) on its private replay, not the scoped rebuild
// the server ran, so it no longer tracks update_p50_ms, and the rung derived
// from it, engine.apply_self_ms, is clamped at 0. ROADMAP item 9(i)
// deletes that ladder.
func BenchmarkRebuildSubtrees(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func() (gen.Dataset, error)
	}{
		{"BK1", func() (gen.Dataset, error) { return gen.BK(1) }},
		{"AMINER0.5", func() (gen.Dataset, error) { return gen.AMiner(0.5) }},
	} {
		ds, err := c.gen()
		if err != nil {
			b.Fatal(err)
		}
		nw := ds.Network
		tree := Build(nw, BuildOptions{})
		v := medianCostVertex(tree, nw)
		affected := nw.Database(v).Items()
		tx := affected[:min(3, affected.Len())]
		prev := make(map[itemset.Item]*BinShard)
		for _, it := range affected {
			if root := tree.Node(itemset.New(it)); root != nil {
				prev[it] = openEncoded(b, root)
			}
		}
		scope := applyScoped(b, nw, &delta.Delta{AddTransactions: []delta.VertexTransaction{{Vertex: v, Tx: tx}}})
		run := func(name string, scope Scope, prev func(itemset.Item) *BinShard) {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				var stats RebuildStats
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if benchShards, stats, err = RebuildScoped(nw, affected, scope, prev); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(affected.Len()), "shards/op")
				b.ReportMetric(float64(stats.Recomputed), "recomputed-nodes/op")
				b.ReportMetric(float64(stats.Reused), "reused-nodes/op")
				b.ReportMetric(float64(stats.Peeled), "peeled-edges/op")
				b.ReportMetric(float64(stats.Carried), "carried-edges/op")
			})
		}
		run("full", Scope{}, nil)
		run("scoped", scope, func(it itemset.Item) *BinShard { return prev[it] })
	}
}

// BenchmarkBuild measures a from-scratch build of the read workloads' index,
// AMINER at scale 0.5, both ways: Build holds the pointer tree (cmd/tcload),
// BuildIndex encodes each shard on its worker and drops the subtree.
func BenchmarkBuild(b *testing.B) {
	ds, err := gen.AMiner(0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchTree = Build(ds.Network, BuildOptions{})
		}
	})
	b.Run("BuildIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchIndex, err = BuildIndex(ds.Network, BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// scanAlphas is the qba-scan α grid of cmd/tcload.
var scanAlphas = [...]float64{0.5, 1, 1.5, 2, 3}

var benchAnswer ShardAnswer

// BenchmarkShardCommunities measures the read kernel where the served path
// runs it: one op is a query-by-alpha over every shard of the read workloads'
// index (AMINER at scale 0.5, TCBIN shards decoded in place) at every α of
// the qba-scan grid — traversal, level decode and community split, no engine
// around it. Every op does the same work, so communities/op is a constant
// and ns/op compares across runs.
func BenchmarkShardCommunities(b *testing.B) {
	ds, err := gen.AMiner(0.5)
	if err != nil {
		b.Fatal(err)
	}
	tree := Build(ds.Network, BuildOptions{})
	var shards []ShardView
	for _, root := range tree.Root().Children {
		shards = append(shards, shardViews(b, root)["BinShard"])
	}
	universe := ds.Network.Items()
	communities := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alpha := range scanAlphas {
			for _, sh := range shards {
				benchAnswer = sh.QuerySub(universe, alpha, nil)
				communities += len(benchAnswer.Communities)
			}
		}
	}
	b.ReportMetric(float64(communities)/float64(b.N), "communities/op")
	b.ReportMetric(float64(len(shards)), "shards/op")
}
