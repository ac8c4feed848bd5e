package tctree

import (
	"sort"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// The layer benchmarks of the mining kernel, on the datasets and shapes the
// served-path benchmark (cmd/tcload) uses, so a kernel change can be measured
// here before it is measured end to end.

var (
	benchSubtrees map[itemset.Item]*Node
	benchTree     *Tree
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

// BenchmarkRebuildSubtrees measures what one update on the mixed-rw workload
// pays in RebuildSubtrees: BK at scale 1, the affected set of a one-transaction
// delta on a median-cost vertex (every item the vertex carries, 37 shards).
func BenchmarkRebuildSubtrees(b *testing.B) {
	ds, err := gen.BK(1)
	if err != nil {
		b.Fatal(err)
	}
	nw := ds.Network
	affected := nw.Database(medianCostVertex(Build(nw, BuildOptions{}), nw)).Items()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSubtrees = RebuildSubtrees(nw, affected)
	}
	b.ReportMetric(float64(affected.Len()), "shards/op")
}

// BenchmarkBuild measures a from-scratch Build of the read workloads' index:
// AMINER at scale 0.5.
func BenchmarkBuild(b *testing.B) {
	ds, err := gen.AMiner(0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTree = Build(ds.Network, BuildOptions{})
	}
}

// scanAlphas is the qba-scan α grid of cmd/tcload.
var scanAlphas = [...]float64{0.5, 1, 1.5, 2, 3}

var benchAnswer ShardAnswer

// BenchmarkShardCommunities measures the read kernel where the served path
// runs it: one query-by-alpha over every shard of the read workloads' index
// (AMINER at scale 0.5, TCBIN shards decoded in place), cycling the qba-scan
// α grid — traversal, level decode and community split, no engine around it.
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
		for _, sh := range shards {
			benchAnswer = sh.QuerySub(universe, scanAlphas[i%len(scanAlphas)])
			communities += len(benchAnswer.Communities)
		}
	}
	b.ReportMetric(float64(communities)/float64(b.N), "communities/op")
	b.ReportMetric(float64(len(shards)), "shards/op")
}
