package engine

import (
	"os"
	"path/filepath"
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
// and so heals it, on both write paths.
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
				if _, err := eng.Query(q, 0); err == nil {
					t.Fatalf("a query over the %s shard should fail", damage)
				}
				d := patternTriangleDelta(nw, q)
				var res *DeltaResult
				if path == "staged" {
					res, err = eng.ApplyDelta(nw, d)
				} else {
					res, err = eng.ApplyDeltaInMemory(nw, d)
				}
				if err != nil {
					t.Fatalf("the update should heal the shard, got %v", err)
				}
				if res.ReusedNodes != 0 {
					t.Fatalf("%d nodes were carried over from an unreadable shard", res.ReusedNodes)
				}
				if path == "journaled" {
					if _, err := eng.Checkpoint(1, nil); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
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

// TestFailedCommitIsHealedByAFullRebuild covers the second fallback: a delta
// whose commit fails has already changed the network, so the next delta must
// rebuild its items too — and in full, because the next delta's scope says
// nothing about what the failed one changed.
func TestFailedCommitIsHealedByAFullRebuild(t *testing.T) {
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

	// The manifest's temp file cannot be created: the commit fails after the
	// network took the delta and the shards were staged.
	block := filepath.Join(dir, tctree.ManifestName+".tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyDelta(nw, patternTriangleDelta(nw, pair)); err == nil {
		t.Fatalf("ApplyDelta should surface the failed commit")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}

	// The next delta touches the same shard, and its scope covers the shard's
	// root only: a scoped rebuild would carry the pair's node over as it
	// stood before the failed delta.
	res, err := eng.ApplyDelta(nw, touchDelta(nw, root.Item))
	if err != nil {
		t.Fatalf("ApplyDelta after the failed commit: %v", err)
	}
	if !pair.SubsetOf(res.Affected) {
		t.Fatalf("affected %v does not cover the failed delta's items %v", res.Affected, pair)
	}
	if res.ReusedNodes != 0 {
		t.Fatalf("%d nodes were carried over into shards a failed commit left behind", res.ReusedNodes)
	}
	assertServesFreshBuild(t, eng, nw, pair, itemset.New(root.Item))

	// With nothing pending, the same delta carries the rest of the shard over.
	res, err = eng.ApplyDelta(nw, touchDelta(nw, root.Item))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedNodes == 0 || res.RecomputedNodes != 1 {
		t.Fatalf("a delta in scope of the shard root only recomputed %d nodes and reused %d", res.RecomputedNodes, res.ReusedNodes)
	}
	assertServesFreshBuild(t, eng, nw, pair)
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
	res, err := eng.ApplyDelta(nw, patternTriangleDelta(nw, itemset.New(fresh)))
	if err != nil {
		t.Fatal(err)
	}
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
