package federation

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/durable"
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

// TestCheckpointNetworkRenameFailure fails the rename of the network file
// inside a checkpoint: the checkpoint returns the error, the manifest on
// disk is unchanged (its JournalSeq not advanced), the dirty shards still
// wait, the network file holds the bytes it held before, and no staged
// shard file is left. The next checkpoint persists both files with
// agreeing stamps.
func TestCheckpointNetworkRenameFailure(t *testing.T) {
	nw := buildTestNetwork(t, 11)
	dir := t.TempDir()
	netPath, indexDir := filepath.Join(dir, "bk.dbnet"), filepath.Join(dir, "bk.index")
	if _, err := tctree.Build(nw, tctree.BuildOptions{}).WriteShardedAs(indexDir, tctree.FormatTCBIN); err != nil {
		t.Fatal(err)
	}
	idx, err := tctree.OpenSharded(indexDir)
	if err != nil {
		t.Fatal(err)
	}
	f := New(Options{})
	if err := f.AttachIndex("bk", idx, NetworkOptions{Network: nw, NetworkPath: netPath}); err != nil {
		t.Fatal(err)
	}
	n, _ := f.Network("bk")
	if err := n.Checkpoint(3); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := n.Engine().ApplyDeltaInMemory(nw, &delta.Delta{AddTransactions: []delta.VertexTransaction{
		{Vertex: 0, Tx: itemset.New(0, 1)}, {Vertex: 1, Tx: itemset.New(0, 1)},
	}}); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	manifestPath := filepath.Join(indexDir, tctree.ManifestName)
	manifestBefore, networkBefore, dirty := read(manifestPath), read(netPath), n.Engine().DirtyShards()
	if dirty == 0 {
		t.Fatal("the delta left no dirty shard")
	}

	durable.Fault = func(name string) error {
		if name == filepath.Base(netPath) {
			return errors.New("injected network rename failure")
		}
		return nil
	}
	defer func() { durable.Fault = nil }()
	if err := n.Checkpoint(4); err == nil || !strings.Contains(err.Error(), "injected network rename failure") {
		t.Fatalf("Checkpoint returned %v, want the injected failure", err)
	}
	durable.Fault = nil
	if !bytes.Equal(read(manifestPath), manifestBefore) {
		t.Fatal("the failed checkpoint changed the manifest")
	}
	if _, seq, err := n.Stamps(); err != nil || seq != 3 {
		t.Fatalf("index stamp after the failed checkpoint = %d (%v), want 3", seq, err)
	}
	if got := n.Engine().DirtyShards(); got != dirty {
		t.Fatalf("%d dirty shards after the failed checkpoint, want %d", got, dirty)
	}
	if !bytes.Equal(read(netPath), networkBefore) {
		t.Fatal("the failed checkpoint changed the network file")
	}
	m, err := tctree.ReadManifest(indexDir)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, e := range m.Shards {
		named[e.File] = true
	}
	entries, err := os.ReadDir(indexDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "shard-") && !named[e.Name()] {
			t.Fatalf("the failed checkpoint left %s behind", e.Name())
		}
	}

	if err := n.Checkpoint(4); err != nil {
		t.Fatalf("Checkpoint after clearing the fault: %v", err)
	}
	if w, m, err := n.Stamps(); err != nil || w != 4 || m != 4 {
		t.Fatalf("stamps = (%d, %d, %v), want (4, 4)", w, m, err)
	}
	if got := n.Engine().DirtyShards(); got != 0 {
		t.Fatalf("%d dirty shards after the checkpoint", got)
	}
	onDisk, _, err := dbnet.ReadFile(netPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(networkBytes(t, onDisk), networkBytes(t, nw)) {
		t.Fatal("the network file does not hold the updated network")
	}
}
