package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// assertServesFreshBuild fails unless the engine answers like an index built
// from scratch on nw.
func assertServesFreshBuild(t *testing.T, eng *Engine, nw *dbnet.Network, patterns ...itemset.Itemset) {
	t.Helper()
	fresh := tctree.Build(nw, tctree.BuildOptions{})
	for _, alpha := range []float64{0, 0.2} {
		assertSameAnswer(t, mustQueryByAlpha(t, eng, alpha), fresh.QueryByAlpha(alpha))
		for _, q := range patterns {
			assertSameAnswer(t, mustQuery(t, eng, q, alpha), fresh.Query(q, alpha))
		}
	}
}

// TestUnreadablePreviousShardIsRebuiltInFull covers the first fallback of the
// scoped rebuild: an update whose previous shard cannot be read — its file is
// corrupt, or gone — carries nothing over from it, rebuilds the shard in full
// and so heals it, whether the update is checkpointed at once ("staged": its
// shards staged and committed inside the update, as a server without a
// journal does) or later ("journaled": served from the heap until then).
func TestUnreadablePreviousShardIsRebuiltInFull(t *testing.T) {
	for _, damage := range []string{"corrupt", "missing"} {
		for _, path := range []string{"staged", "journaled"} {
			t.Run(damage+"/"+path, func(t *testing.T) {
				tree := buildTestTree(t, 11)
				nw := testNetwork(11)
				idx, dir := writeShardedTestTree(t, tree)
				victim := tree.Root().Children[0]
				entry, _ := idx.Entry(victim.Item)
				file := filepath.Join(dir, entry.File)
				if damage == "missing" {
					if err := os.Remove(file); err != nil {
						t.Fatal(err)
					}
				} else {
					data, err := os.ReadFile(file)
					if err != nil {
						t.Fatal(err)
					}
					data[len(data)/2] ^= 0xff
					if err := os.WriteFile(file, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				eng, err := NewLazy(idx, Options{})
				if err != nil {
					t.Fatal(err)
				}
				q := itemset.New(victim.Item)
				if _, err := eng.QueryContext(context.Background(), q, 0); err == nil {
					t.Fatalf("a query over the %s shard should fail", damage)
				}
				res, err := eng.ApplyDeltaInMemory(nw, patternTriangleDelta(nw, q))
				if err != nil {
					t.Fatalf("the update should heal the shard, got %v", err)
				}
				if res.ReusedNodes != 0 {
					t.Fatalf("%d nodes were carried over from an unreadable shard", res.ReusedNodes)
				}
				seq := uint64(0)
				if path == "journaled" {
					assertServesFreshBuild(t, eng, nw, q)
					seq = 1
				}
				if _, err := eng.Checkpoint(seq, nil); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				assertServesFreshBuild(t, eng, nw, q)
				reopened, err := tctree.OpenSharded(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := reopened.LoadTree(); err != nil {
					t.Fatalf("the index on disk is still damaged: %v", err)
				}
			})
		}
	}
}

// TestFailedCheckpointKeepsTheDirtySet covers an update whose checkpoint
// fails: nothing is committed, the update is served from memory, its shards
// stay dirty, the next update carries the rest of the shard over from them —
// they are current — and the next checkpoint persists both updates.
func TestFailedCheckpointKeepsTheDirtySet(t *testing.T) {
	tree := buildTestTree(t, 11)
	nw := testNetwork(11)
	idx, dir := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root().Children[0]
	if len(root.Children) == 0 {
		t.Fatalf("shard %d has no second level; pick another seed", root.Item)
	}
	pair := root.Children[0].Pattern
	mustQueryByAlpha(t, eng, 0) // every previous shard is resident and readable
	before := idx.Manifest()

	// The manifest's temp file cannot be created: the checkpoint fails after
	// the update was applied in memory and its shards were staged.
	block := filepath.Join(dir, tctree.ManifestName+".tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyDeltaInMemory(nw, patternTriangleDelta(nw, pair)); err != nil {
		t.Fatal(err)
	}
	dirty := eng.DirtyShards()
	if _, err := eng.Checkpoint(0, nil); err == nil {
		t.Fatalf("Checkpoint should surface the failed commit")
	}
	if dirty == 0 || eng.DirtyShards() != dirty {
		t.Fatalf("dirty shards went %d -> %d across the failed checkpoint", dirty, eng.DirtyShards())
	}
	if after := idx.Manifest(); !reflect.DeepEqual(after.Shards, before.Shards) {
		t.Fatalf("the failed checkpoint changed the manifest")
	}
	assertServesFreshBuild(t, eng, nw, pair)
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}

	// The next update touches the same shard, and its scope covers the
	// shard's root only: the rest is carried over from the dirty shard.
	res, err := eng.ApplyDeltaInMemory(nw, touchDelta(nw, root.Item))
	if err != nil {
		t.Fatalf("update after the failed checkpoint: %v", err)
	}
	if res.ReusedNodes == 0 || res.RecomputedNodes != 1 {
		t.Fatalf("a delta in scope of the shard root only recomputed %d nodes and reused %d", res.RecomputedNodes, res.ReusedNodes)
	}
	if _, err := eng.Checkpoint(0, nil); err != nil {
		t.Fatalf("Checkpoint after the failed one: %v", err)
	}
	if n := eng.DirtyShards(); n != 0 {
		t.Fatalf("%d dirty shards survive the checkpoint", n)
	}
	assertServesFreshBuild(t, eng, nw, pair, itemset.New(root.Item))

	// Both updates are on disk: a cold engine answers like a fresh build.
	reopened, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewLazy(reopened, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertServesFreshBuild(t, cold, nw, pair, itemset.New(root.Item))
}

// TestDeltaOnANewItemCreatesItsShard covers the third: an item with no shard
// has no previous subtree, and the update creates the shard.
func TestDeltaOnANewItemCreatesItsShard(t *testing.T) {
	tree := buildTestTree(t, 11)
	nw := testNetwork(11)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const fresh = itemset.Item(4096)
	res := applyDelta(t, eng, nw, patternTriangleDelta(nw, itemset.New(fresh)))
	if len(res.Report.Added) != 1 || res.Report.Added[0] != fresh {
		t.Fatalf("report %+v does not add the shard of item %d", res.Report, fresh)
	}
	if res.RecomputedNodes != 1 || res.ReusedNodes != 0 {
		t.Fatalf("a new one-node shard recomputed %d nodes and reused %d", res.RecomputedNodes, res.ReusedNodes)
	}
	if _, ok := idx.Entry(fresh); !ok {
		t.Fatalf("the index has no shard for item %d", fresh)
	}
	assertServesFreshBuild(t, eng, nw, itemset.New(fresh))
}
