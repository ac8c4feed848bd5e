package engine

import (
	"context"
	"sort"
	"testing"

	"themecomm/internal/delta"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// BenchmarkApplyDelta measures a whole update where the served-path benchmark
// (cmd/tcload) pays for one: the read workloads' index — AMINER at scale 0.5,
// written to a real index directory and served lazily — taking tcload's
// update, a transaction of three items the vertex already carries, on a
// vertex of median cost. An update is the one write route: ApplyDeltaInMemory
// (scope, apply, scoped rebuild, swap) then the Checkpoint that persists it
// (shard files, manifest commit, swap-back). The network write-back tcserver
// adds is not the engine's and is not here. Every other iteration removes the
// transaction the one before it added, so the index does not drift with b.N.
func BenchmarkApplyDelta(b *testing.B) {
	ds, err := gen.AMiner(0.5)
	if err != nil {
		b.Fatal(err)
	}
	nw := ds.Network
	tree := tctree.Build(nw, tctree.BuildOptions{})
	dir := b.TempDir()
	if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		b.Fatal(err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		b.Fatal(err)
	}
	// A server's shards are resident when an update arrives.
	if _, err := eng.QueryContext(context.Background(), nil, 0); err != nil {
		b.Fatal(err)
	}

	// The vertex whose update costs the median: an update rebuilds the shard
	// of every item its vertex carries.
	shardNodes := make(map[itemset.Item]int)
	for _, st := range tree.ShardStats() {
		shardNodes[st.Item] = st.Nodes
	}
	vertices := make([]graph.VertexID, nw.NumVertices())
	weight := make([]int, nw.NumVertices())
	for v := range vertices {
		vertices[v] = graph.VertexID(v)
		for _, it := range nw.Database(graph.VertexID(v)).Items() {
			weight[v] += shardNodes[it]
		}
	}
	sort.SliceStable(vertices, func(i, j int) bool { return weight[vertices[i]] < weight[vertices[j]] })
	v := vertices[len(vertices)/2]
	tx := delta.VertexTransaction{Vertex: v, Tx: nw.Database(v).Items()[:3]}
	updates := [2]*delta.Delta{
		{AddTransactions: []delta.VertexTransaction{tx}},
		{RemoveTransactions: []delta.VertexTransaction{tx}},
	}

	var shards, reused int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ApplyDeltaInMemory(nw, updates[i%2])
		if err == nil {
			_, err = eng.Checkpoint(uint64(i+1), nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		shards += res.Affected.Len()
		reused += res.ReusedNodes
	}
	b.ReportMetric(float64(shards)/float64(b.N), "affected-shards/op")
	b.ReportMetric(float64(reused)/float64(b.N), "reused-nodes/op")
}
