package replication

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/federation"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/journal"
	"themecomm/internal/tctree"
)

// benchState builds one tenant's on-disk state (network file + sharded
// index) and attaches it to a fresh federation.
func benchState(b *testing.B, dir, name string, seed int64) (*federation.Federation, *federation.Network) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := randomNetwork(rng, 20, 50, 8, 3)
	sub := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Join(sub, "index"), 0o755); err != nil {
		b.Fatal(err)
	}
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if _, err := tree.WriteShardedAs(filepath.Join(sub, "index"), tctree.FormatTCBIN); err != nil {
		b.Fatal(err)
	}
	netPath := filepath.Join(sub, "network.dbnet")
	if err := dbnet.WriteFileAtomic(netPath, nw, nil); err != nil {
		b.Fatal(err)
	}
	idx, err := tctree.OpenSharded(filepath.Join(sub, "index"))
	if err != nil {
		b.Fatal(err)
	}
	fed := federation.New(federation.Options{})
	if err := fed.AttachIndex(name, idx, federation.NetworkOptions{Network: nw, NetworkPath: netPath}); err != nil {
		b.Fatal(err)
	}
	n, _ := fed.Network(name)
	return fed, n
}

// toggleDeltas returns a pair of inverse deltas — applied alternately they
// keep the network bounded, so every iteration pays a comparable update.
func toggleDeltas(nw *dbnet.Network) [2]*delta.Delta {
	// An edge not present in the seeded network: randomNetwork never wires
	// vertex 0 to itself and the generator is sparse enough that some pair is
	// free; scan for one.
	var free graph.Edge
	found := false
	for u := 0; u < nw.NumVertices() && !found; u++ {
		for v := u + 1; v < nw.NumVertices() && !found; v++ {
			if !nw.Graph().HasEdge(graph.VertexID(u), graph.VertexID(v)) {
				free = graph.EdgeOf(graph.VertexID(u), graph.VertexID(v))
				found = true
			}
		}
	}
	tx := itemset.New(1, 3)
	add := &delta.Delta{
		AddEdges:        []graph.Edge{free},
		AddTransactions: []delta.VertexTransaction{{Vertex: free.U, Tx: tx}},
	}
	remove := &delta.Delta{
		RemoveEdges:        []graph.Edge{free},
		RemoveTransactions: []delta.VertexTransaction{{Vertex: free.U, Tx: tx}},
	}
	return [2]*delta.Delta{add, remove}
}

// BenchmarkJournalAppend measures the one write route: one group-committed
// journal append plus the in-memory apply per update, the checkpoint
// deferred past the timed loop. The arms report fsyncs/op: with concurrent
// writers the group commit drives it well below 1.
func BenchmarkJournalAppend(b *testing.B) {
	b.Run("journaled", func(b *testing.B) {
		dir := b.TempDir()
		_, n := benchState(b, dir, "bench", 7)
		j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		p := NewPrimary(j, Options{CheckpointInterval: -1})
		if err := p.Add(n); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Recover(); err != nil {
			b.Fatal(err)
		}
		deltas := toggleDeltas(n.DatabaseNetwork())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Apply("bench", deltas[i%2]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		js := j.Stats()
		b.ReportMetric(float64(js.Fsyncs)/float64(b.N), "fsyncs/op")
		if err := p.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	})

	// Concurrent updates across tenants share one journal fsync per batch:
	// this is where group commit pays off.
	b.Run("journaled-parallel", func(b *testing.B) {
		const tenants = 4
		dir := b.TempDir()
		j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		p := NewPrimary(j, Options{CheckpointInterval: -1})
		names := make([]string, tenants)
		deltas := make(map[string][2]*delta.Delta, tenants)
		for i := 0; i < tenants; i++ {
			name := fmt.Sprintf("bench%d", i)
			_, n := benchState(b, dir, name, int64(7+i))
			if err := p.Add(n); err != nil {
				b.Fatal(err)
			}
			names[i] = name
			deltas[name] = toggleDeltas(n.DatabaseNetwork())
		}
		if _, err := p.Recover(); err != nil {
			b.Fatal(err)
		}
		var gid atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			name := names[int(gid.Add(1))%tenants]
			pair := deltas[name]
			i := 0
			for pb.Next() {
				if _, err := p.Apply(name, pair[i%2]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.StopTimer()
		js := j.Stats()
		b.ReportMetric(float64(js.Fsyncs)/float64(b.N), "fsyncs/op")
		if err := p.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	})
}
