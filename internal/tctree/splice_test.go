package tctree

import (
	"bytes"
	"math/rand"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// scopedMutation applies a delta of a few random changes to nw — edges added
// and removed, transactions added and removed — and returns its scope as the
// engine hands it to RebuildScoped.
func scopedMutation(t *testing.T, rng *rand.Rand, nw *dbnet.Network) Scope {
	t.Helper()
	n := nw.NumVertices()
	vertex := func() graph.VertexID { return graph.VertexID(rng.Intn(n)) }
	items := nw.Items()
	d := &delta.Delta{}
	removing := make(map[graph.VertexID]bool)
	for i, steps := 0, 1+rng.Intn(3); i < steps; i++ {
		switch rng.Intn(4) {
		case 0:
			if a, b := vertex(), vertex(); a != b {
				d.AddEdges = append(d.AddEdges, graph.EdgeOf(a, b))
			}
		case 1:
			if edges := nw.Graph().Edges(); len(edges) > 0 {
				d.RemoveEdges = append(d.RemoveEdges, edges[rng.Intn(len(edges))])
			}
		case 2:
			// Mostly items the vertex carries (tcload's update), sometimes any.
			v := vertex()
			pool := nw.Database(v).Items()
			if pool.Len() == 0 || rng.Intn(4) == 0 {
				pool = items
			}
			tx := itemset.New(pool[rng.Intn(pool.Len())], pool[rng.Intn(pool.Len())], pool[rng.Intn(pool.Len())])
			d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{Vertex: v, Tx: tx})
		case 3:
			v := vertex()
			if txs := nw.Database(v).Transactions(); len(txs) > 0 && !removing[v] {
				removing[v] = true
				d.RemoveTransactions = append(d.RemoveTransactions, delta.VertexTransaction{Vertex: v, Tx: txs[rng.Intn(len(txs))].Clone()})
			}
		}
	}
	return applyScoped(t, nw, d)
}

// applyScoped applies d to nw and returns its scope as the engine hands it
// to RebuildScoped: taken before the delta, seeded on the network after it.
func applyScoped(tb testing.TB, nw *dbnet.Network, d *delta.Delta) Scope {
	tb.Helper()
	s := delta.ScopeOf(nw, d)
	if err := delta.Apply(nw, d); err != nil {
		tb.Fatal(err)
	}
	return Scope{Witnesses: s.Witnesses, Seeds: func(it itemset.Item) []graph.VertexID { return s.Seeds(nw, it) }}
}

func scopeItems(scope Scope) itemset.Itemset {
	var items []itemset.Item
	for _, w := range scope.Witnesses {
		items = append(items, w...)
	}
	return itemset.New(items...)
}

// TestSplicedShardIsByteIdenticalToEncodedShard holds the byte route against
// the pointer route it replaced, over rounds of random scoped changes on the
// four generated datasets: the shards RebuildScoped splices out of the
// previous round's bytes must equal, byte for byte and entry for entry, the
// encoding of the pointer tree the reference scoped rebuild grafts out of the
// previous round's tree, carry over and re-mine the same node counts, and
// materialize back to that tree node for node.
func TestSplicedShardIsByteIdenticalToEncodedShard(t *testing.T) {
	datasets, err := gen.AllDatasets(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range datasets {
		t.Run(ds.Name, func(t *testing.T) {
			nw := ds.Network
			rng := rand.New(rand.NewSource(int64(len(ds.Name)) * 7919))
			prevBin := make(map[itemset.Item]*BinShard)
			prevNode := make(map[itemset.Item]*Node)
			for _, root := range Build(nw, BuildOptions{}).Root().Children {
				prevBin[root.Item], prevNode[root.Item] = openEncoded(t, root), root
			}
			var total RebuildStats
			for round := 0; round < 6; round++ {
				scope := scopedMutation(t, rng, nw)
				affected := scopeItems(scope)
				spliced, stats, err := RebuildScoped(nw, affected, scope, func(it itemset.Item) *BinShard { return prevBin[it] })
				if err != nil {
					t.Fatalf("round %d: RebuildScoped: %v", round, err)
				}
				var want RebuildStats
				for _, it := range affected {
					ref, refStats := referenceScopedRebuild(nw, it, scope.Witnesses, prevNode[it])
					want.Recomputed += refStats.Recomputed
					want.Reused += refStats.Reused
					got := spliced[it]
					if ref == nil {
						if got != nil {
							t.Fatalf("round %d: item %d indexes nothing, yet a shard of %d nodes was spliced", round, it, got.Entry.Nodes)
						}
						delete(prevBin, it)
						delete(prevNode, it)
						continue
					}
					enc, err := encodeShardBinary(ref)
					if err != nil {
						t.Fatal(err)
					}
					if got == nil || !bytes.Equal(got.Data, enc.Data) {
						t.Fatalf("round %d: shard %d: spliced bytes differ from the encoded reference tree", round, it)
					}
					if got.Entry != enc.Entry {
						t.Fatalf("round %d: shard %d: spliced entry %+v, want %+v", round, it, got.Entry, enc.Entry)
					}
					bin, err := got.Open()
					if err != nil {
						t.Fatalf("round %d: shard %d: %v", round, it, err)
					}
					back, err := bin.Materialize()
					if err != nil {
						t.Fatalf("round %d: shard %d: Materialize: %v", round, it, err)
					}
					assertSameSubtree(t, ref, back)
					prevBin[it], prevNode[it] = bin, ref
				}
				if stats.Recomputed != want.Recomputed || stats.Reused != want.Reused {
					t.Fatalf("round %d: spliced %+v, the reference %+v", round, stats, want)
				}
				total.Recomputed += stats.Recomputed
				total.Reused += stats.Reused
			}
			t.Logf("%+v over all rounds", total)
			if total.Recomputed == 0 || total.Reused == 0 {
				t.Fatalf("%+v over all rounds: the changes never exercised both halves of a splice", total)
			}
		})
	}
}

// TestScopedRebuildDoesNotDecodeCarriedOverNodes bounds what one scoped
// rebuild allocates by what it mines and how many shards it touches: the
// nodes it carries over — most of every shard — cost it nothing per node,
// because they are never decoded. Decoding them (a node, a decomposition, a
// frequency map, levels and edges each) allocated about ten times per
// carried-over node and several times this bound.
func TestScopedRebuildDoesNotDecodeCarriedOverNodes(t *testing.T) {
	ds, err := gen.AMiner(0.25)
	if err != nil {
		t.Fatal(err)
	}
	nw := ds.Network
	tree := Build(nw, BuildOptions{})
	v := medianCostVertex(tree, nw)
	affected := nw.Database(v).Items()
	tx := affected[:min(3, affected.Len())]
	prev := make(map[itemset.Item]*BinShard)
	for _, it := range affected {
		if root := tree.Node(itemset.New(it)); root != nil {
			prev[it] = openEncoded(t, root)
		}
	}
	scope := applyScoped(t, nw, &delta.Delta{AddTransactions: []delta.VertexTransaction{{Vertex: v, Tx: tx}}})
	var stats RebuildStats
	allocs := testing.AllocsPerRun(3, func() {
		if _, stats, err = RebuildScoped(nw, affected, scope, func(it itemset.Item) *BinShard { return prev[it] }); err != nil {
			t.Fatal(err)
		}
	})
	if stats.Reused < 4*stats.Recomputed {
		t.Fatalf("%+v: the update carries too little over to tell the two routes apart", stats)
	}
	const perMined, perShard = 32, 64
	bound := float64(perMined*stats.Recomputed + perShard*affected.Len())
	t.Logf("%.0f allocations for %d mined and %d carried-over nodes in %d shards (bound %.0f)",
		allocs, stats.Recomputed, stats.Reused, affected.Len(), bound)
	if allocs > bound {
		t.Fatalf("%.0f allocations for %d mined nodes in %d shards exceed the bound %.0f: %d carried-over nodes are not free",
			allocs, stats.Recomputed, affected.Len(), bound, stats.Reused)
	}
}
