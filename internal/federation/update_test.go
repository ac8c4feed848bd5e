package federation

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/durable"
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
