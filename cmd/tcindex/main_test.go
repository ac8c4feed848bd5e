package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/replication"
	"themecomm/internal/tctree"
)

// writePair writes the BK analogue at scale 0.1 as dir/bk.dbnet, unstamped,
// and indexes it as dir/bk.index with tcindex.
func writePair(t *testing.T, dir string) {
	t.Helper()
	d, err := gen.ByName("BK", gen.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := dbnet.WriteFileAtomic(filepath.Join(dir, "bk.dbnet"), d.Network, d.Dictionary); err != nil {
		t.Fatal(err)
	}
	tcindex(t, dir)
}

// tcindex rebuilds dir/bk.index from dir/bk.dbnet.
func tcindex(t *testing.T, dir string, out ...string) {
	t.Helper()
	if out == nil {
		out = []string{filepath.Join(dir, "bk.index")}
	}
	if err := run([]string{"-in", filepath.Join(dir, "bk.dbnet"), "-out", out[0]}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// openPair opens dir's pair writable as tcserver and tcupdate do, its
// journal in the default place.
func openPair(t *testing.T, dir string) (*replication.Primary, *replication.RecoverStats, *federation.Network) {
	t.Helper()
	f := federation.New(federation.Options{})
	if err := f.AttachIndexDir("bk", filepath.Join(dir, "bk.index"), filepath.Join(dir, "bk.dbnet")); err != nil {
		t.Fatal(err)
	}
	p, stats, err := replication.OpenPrimary(f, "", replication.Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := f.Network("bk")
	return p, stats, n
}

// update journals and applies one transaction of item 0 on vertex v.
func update(t *testing.T, p *replication.Primary, v graph.VertexID) {
	t.Helper()
	if _, err := p.Apply("bk", &delta.Delta{AddTransactions: []delta.VertexTransaction{{Vertex: v, Tx: itemset.New(0)}}}); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// An index rebuilt from a checkpointed network carries the network file's
// stamp: the manifest equals the maintained index's, and the next writable
// open neither resyncs nor replays.
func TestIndexCarriesTheNetworkStamp(t *testing.T) {
	dir := t.TempDir()
	writePair(t, dir)
	p, _, _ := openPair(t, dir)
	update(t, p, 7)
	update(t, p, 8)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	maintained := readFile(t, filepath.Join(dir, "bk.index", tctree.ManifestName))

	fresh := filepath.Join(dir, "fresh.index")
	tcindex(t, dir, fresh)
	if got := readFile(t, filepath.Join(fresh, tctree.ManifestName)); !bytes.Equal(got, maintained) {
		t.Fatalf("a fresh build's manifest differs from the maintained one:\n%s\nwant\n%s", got, maintained)
	}
	tcindex(t, dir)
	if m, err := tctree.ReadManifest(filepath.Join(dir, "bk.index")); err != nil || m.JournalSeq != 2 {
		t.Fatalf("rebuilt manifest stamp %v (%v), want 2", m.JournalSeq, err)
	}
	p, stats, _ := openPair(t, dir)
	defer p.Close()
	if len(stats.Resynced) != 0 || stats.Replayed != 0 {
		t.Fatalf("recovery of the rebuilt pair: %+v, want nothing resynced or replayed", stats)
	}
}

// A network file regenerated beside an old default journal has no stamp:
// tcindex refuses to rebuild its index, naming the journal, rather than let
// the journal's records be replayed onto it.
func TestRegeneratedPairIsRefused(t *testing.T) {
	dir := t.TempDir()
	writePair(t, dir)
	p, _, _ := openPair(t, dir)
	update(t, p, 7)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := readFile(t, filepath.Join(dir, "bk.index", tctree.ManifestName))

	d, err := gen.ByName("BK", gen.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := dbnet.WriteFileAtomic(filepath.Join(dir, "bk.dbnet"), d.Network, d.Dictionary); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-in", filepath.Join(dir, "bk.dbnet"), "-out", filepath.Join(dir, "bk.index")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "journal")) || !strings.Contains(err.Error(), "delete the journal") {
		t.Fatalf("tcindex over a regenerated pair: %v, want a refusal naming the journal", err)
	}
	if got := readFile(t, filepath.Join(dir, "bk.index", tctree.ManifestName)); !bytes.Equal(got, manifest) {
		t.Fatal("the refused rebuild changed the index")
	}
	// Deleting the journal is the way out.
	if err := os.RemoveAll(filepath.Join(dir, "journal")); err != nil {
		t.Fatal(err)
	}
	tcindex(t, dir)
}

// A crash before the pair's first checkpoint leaves records past stamp 0 as
// well: the next writable open replays them, and tcindex will not rebuild
// the index underneath them.
func TestCrashBeforeTheFirstCheckpointRecovers(t *testing.T) {
	dir := t.TempDir()
	writePair(t, dir)
	p, _, _ := openPair(t, dir)
	update(t, p, 7)
	p.Journal().Close() // the process ends before any checkpoint

	if err := run([]string{"-in", filepath.Join(dir, "bk.dbnet"), "-out", filepath.Join(dir, "bk.index")}, io.Discard); err == nil {
		t.Fatal("tcindex rebuilt an index with journaled updates pending")
	}
	p, stats, n := openPair(t, dir)
	defer p.Close()
	if stats.Replayed != 1 {
		t.Fatalf("recovery replayed %d records, want 1", stats.Replayed)
	}
	txs := n.DatabaseNetwork().Database(7).Transactions()
	if !txs[len(txs)-1].Equal(itemset.New(0)) {
		t.Fatalf("vertex 7's transactions %v lack the journaled update", txs)
	}
}
