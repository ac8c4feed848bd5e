package federation

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/engine"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// networkBytes renders a network without its stamp, for comparing contents.
func networkBytes(t *testing.T, nw *dbnet.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dbnet.Write(&buf, nw, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyDeltaCheckpointsAtOnce covers the unjournaled update on both kinds
// of tenant: the update is served at once, the network file is written back
// with its journal-seq stamp kept, an indexed tenant's rebuilt shards are
// committed with the manifest keeping its own, and a tenant without a
// database network refuses the delta.
func TestApplyDeltaCheckpointsAtOnce(t *testing.T) {
	for _, mode := range []string{"eager", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			nw := buildTestNetwork(t, 11)
			dir := t.TempDir()
			netPath, indexDir := filepath.Join(dir, "bk.dbnet"), filepath.Join(dir, "bk.index")
			tree := tctree.Build(nw, tctree.BuildOptions{})
			f := New(Options{CacheSize: 16})
			opts := NetworkOptions{Network: nw, NetworkPath: netPath}
			var err error
			if mode == "eager" {
				err = f.AttachBuilt("bk", buildTestIndex(t, 11), opts)
			} else if _, err = tree.WriteShardedAs(indexDir, tctree.FormatTCBIN); err == nil {
				var idx *tctree.ShardedIndex
				if idx, err = tctree.OpenSharded(indexDir); err == nil {
					err = f.AttachIndex("bk", idx, opts)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			n, _ := f.Network("bk")
			// A journaled session left the files stamped at 3.
			if err := n.Checkpoint(3); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			wantIndexSeq := uint64(0)
			if mode == "lazy" {
				wantIndexSeq = 3
			}

			d := &delta.Delta{AddTransactions: []delta.VertexTransaction{
				{Vertex: 0, Tx: itemset.New(0, 1)}, {Vertex: 1, Tx: itemset.New(0, 1)},
			}}
			res, err := f.ApplyDelta("bk", d)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			if res.Affected.Len() == 0 || res.Duration <= 0 {
				t.Fatalf("result %+v: want affected items and a duration", res)
			}
			if w, m, err := n.Stamps(); err != nil || w != 3 || m != wantIndexSeq {
				t.Fatalf("stamps after the update = (%d, %d, %v), want (3, %d)", w, m, err, wantIndexSeq)
			}
			onDisk, _, err := dbnet.ReadFile(netPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(networkBytes(t, onDisk), networkBytes(t, nw)) {
				t.Fatalf("the network file was not written back")
			}
			fresh := tctree.Build(nw, tctree.BuildOptions{})
			got, err := n.Engine().QueryContext(context.Background(), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswer(t, "bk", got, fresh.QueryByAlpha(0))
			if mode == "lazy" {
				if n.Engine().DirtyShards() != 0 {
					t.Fatalf("%d dirty shards after an unjournaled update", n.Engine().DirtyShards())
				}
				idx, err := tctree.OpenSharded(indexDir)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := engine.NewLazy(idx, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := cold.QueryContext(context.Background(), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				assertSameAnswer(t, "bk (reopened)", got, fresh.QueryByAlpha(0))
			}

			if err := f.AttachBuilt("frozen", buildTestIndex(t, 11), NetworkOptions{}); err != nil {
				t.Fatal(err)
			}
			if _, err := f.ApplyDelta("frozen", d); err == nil {
				t.Fatal("a tenant without a database network accepted a delta")
			}
			if _, err := f.ApplyDelta("nosuch", d); err == nil {
				t.Fatal("an unknown tenant accepted a delta")
			}
		})
	}
}
