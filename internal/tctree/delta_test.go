package tctree

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/durable"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// collectTempFiles lists the *.tmp files inside dir.
func collectTempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	return out
}

// commitNodes swaps a batch of subtrees into the index the way a checkpoint
// does: encode, StageShards, Commit, Sweep. A nil subtree removes the item's
// shard (a no-op when none exists).
func commitNodes(idx *ShardedIndex, subtrees map[itemset.Item]*Node) (*CommitReport, error) {
	shards := make(map[itemset.Item]*EncodedShard, len(subtrees))
	for it, sub := range subtrees {
		if sub == nil {
			shards[it] = nil
			continue
		}
		enc, err := encodeShardBinary(sub)
		if err != nil {
			return nil, err
		}
		shards[it] = enc
	}
	st, err := idx.StageShards(shards)
	if err != nil {
		return nil, err
	}
	report, err := st.Commit()
	st.Sweep()
	return report, err
}

// TestCommitShardsCrashSafety injects a write failure mid-commit (the temp
// file is written but never renamed, as a crash would leave it) and asserts
// the index still opens clean on the old manifest, answers queries
// identically, and that reopening sweeps the orphaned temp files.
func TestCommitShardsCrashSafety(t *testing.T) {
	tree := buildShardedTestTree(t, 25)
	other := buildShardedTestTree(t, 31)
	// The old index must have a shard below its root, or the query by alpha
	// compared at the end checks only roots.
	deep := false
	for _, c := range tree.Root().Children {
		deep = deep || c.Children != nil
	}
	if !deep {
		t.Fatalf("every shard of the fixture has one node; pick another seed")
	}
	// The replacement must differ from the shard it would replace, or a
	// commit that went through would answer the same.
	var replacement *Node
	for _, c := range other.Root().Children {
		if old := tree.Root().Descendant(c.Pattern); old != nil && !sameShardBytes(t, old, c) {
			replacement = c
			break
		}
	}
	if replacement == nil {
		t.Fatalf("no shard of the other tree replaces one of the fixture's with other bytes; pick other seeds")
	}

	for _, failOn := range []string{"shard", "manifest"} {
		t.Run("fail-on-"+failOn, func(t *testing.T) {
			dir := t.TempDir()
			before, err := indexOf(t, tree).Write(dir)
			if err != nil {
				t.Fatalf("WriteShardedAs: %v", err)
			}
			idx, err := OpenSharded(dir)
			if err != nil {
				t.Fatalf("OpenSharded: %v", err)
			}
			durable.Fault = func(name string) error {
				if failOn == "manifest" && name == ManifestName {
					return fmt.Errorf("injected manifest write failure")
				}
				if failOn == "shard" && name != ManifestName {
					return fmt.Errorf("injected shard write failure")
				}
				return nil
			}
			defer func() { durable.Fault = nil }()
			if _, err := commitNodes(idx, map[itemset.Item]*Node{replacement.Item: replacement}); err == nil {
				t.Fatalf("the commit should surface the injected failure")
			}
			durable.Fault = nil

			// The in-memory handle must still serve the old manifest...
			if got := idx.Manifest(); len(got.Shards) != len(before.Shards) {
				t.Fatalf("in-memory manifest lost shards: %d, want %d", len(got.Shards), len(before.Shards))
			}
			// ...and a fresh open must see the untouched old index.
			reopened, err := OpenSharded(dir)
			if err != nil {
				t.Fatalf("OpenSharded after failed commit: %v", err)
			}
			if tmp := collectTempFiles(t, dir); len(tmp) != 0 {
				t.Fatalf("orphaned temp files survived reopen: %v", tmp)
			}
			m := reopened.Manifest()
			for i, e := range m.Shards {
				if e != before.Shards[i] {
					t.Fatalf("shard entry %d changed across failed commit: %+v -> %+v", i, before.Shards[i], e)
				}
			}
			loaded, err := reopened.LoadTree()
			if err != nil {
				t.Fatalf("LoadTree after failed commit: %v", err)
			}
			assertIdenticalAnswer(t, loaded.Query(nil, 0), tree.Query(nil, 0))
			// Query(nil, 0) retrieves nothing on a Tree; the query by alpha
			// at 0 retrieves every node of every shard.
			assertIdenticalAnswer(t, loaded.QueryByAlpha(0), tree.QueryByAlpha(0))
		})
	}
}

// sameShardBytes reports whether two shard subtrees encode to the same TCBIN
// bytes.
func sameShardBytes(t *testing.T, a, b *Node) bool {
	t.Helper()
	ea, err := encodeShardBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := encodeShardBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea.Data, eb.Data)
}

// TestFailedRewriteKeepsTheOldIndex writes index A, then index B over the
// same directory with the manifest rename failing: no file A's manifest
// names may have been overwritten, so the directory still opens as A, every
// shard loads, and queries answer exactly as A did — Query(nil, 0) and the
// query by alpha at 0, which retrieves every node.
func TestFailedRewriteKeepsTheOldIndex(t *testing.T) {
	a, b := buildShardedTestTree(t, 19), buildShardedTestTree(t, 31)
	dir := t.TempDir()
	before, err := indexOf(t, a).Write(dir)
	if err != nil {
		t.Fatalf("Write A: %v", err)
	}
	durable.Fault = func(name string) error {
		if name == ManifestName {
			return fmt.Errorf("injected manifest rename failure")
		}
		return nil
	}
	defer func() { durable.Fault = nil }()
	if _, err := indexOf(t, b).Write(dir); err == nil {
		t.Fatal("the rewrite should surface the injected failure")
	}
	durable.Fault = nil

	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded after the failed rewrite: %v", err)
	}
	if m := idx.Manifest(); !reflect.DeepEqual(m.Shards, before.Shards) {
		t.Fatalf("the failed rewrite changed the manifest")
	}
	for _, e := range before.Shards {
		if _, err := idx.OpenShard(itemset.Item(e.Item)); err != nil {
			t.Fatalf("shard %d after the failed rewrite: %v", e.Item, err)
		}
	}
	loaded, err := idx.LoadTree()
	if err != nil {
		t.Fatalf("LoadTree after the failed rewrite: %v", err)
	}
	assertIdenticalAnswer(t, loaded.Query(nil, 0), a.Query(nil, 0))
	assertIdenticalAnswer(t, loaded.QueryByAlpha(0), a.QueryByAlpha(0))
}

// TestFailedCommitPreservesReusedFiles covers the case where a rebuilt shard
// is byte-identical to the current one: its content name is
// reused, and a failure later in the same commit must not delete that file —
// the old manifest still references it.
func TestFailedCommitPreservesReusedFiles(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	if _, err := indexOf(t, tree).Write(dir); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	a := tree.Root().Children[0]
	b := tree.Root().Children[1]
	// First commit re-stages shard a under the content name the index names.
	if _, err := commitNodes(idx, map[itemset.Item]*Node{a.Item: a}); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	entryA, _ := idx.Entry(a.Item)
	// Second commit resubmits a unchanged (same name) and fails on b's file.
	durable.Fault = func(name string) error {
		if name != entryA.File && name != ManifestName {
			return fmt.Errorf("injected failure on %s", name)
		}
		return nil
	}
	defer func() { durable.Fault = nil }()
	if _, err := commitNodes(idx, map[itemset.Item]*Node{a.Item: a, b.Item: b}); err == nil {
		t.Fatalf("commit should surface the injected failure")
	}
	durable.Fault = nil
	// Shard a's file must have survived the failed commit's cleanup.
	if _, err := idx.LoadShard(a.Item); err != nil {
		t.Fatalf("LoadShard(%d) after failed commit: %v", a.Item, err)
	}
	if _, err := idx.LoadTree(); err != nil {
		t.Fatalf("LoadTree after failed commit: %v", err)
	}
}

// TestOpenShardedSweepsOrphanTempFiles plants stray temp files (as a crashed
// writer would) and asserts OpenSharded removes them without touching
// committed data.
func TestOpenShardedSweepsOrphanTempFiles(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	if _, err := indexOf(t, tree).Write(dir); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	for _, name := range []string{"shard-9999.tcbin.tmp", ManifestName + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	if tmp := collectTempFiles(t, dir); len(tmp) != 0 {
		t.Fatalf("orphan temp files survived OpenSharded: %v", tmp)
	}
	if _, err := idx.LoadTree(); err != nil {
		t.Fatalf("LoadTree after sweep: %v", err)
	}
}

// TestCommitShardsAddRemove exercises the membership half of a commit: a new
// shard joins the manifest, a removed shard leaves it, and the files follow.
func TestCommitShardsAddRemove(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	if _, err := indexOf(t, tree).Write(dir); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}

	// Remove the first shard, add a brand-new item by grafting a copy of the
	// last shard onto an unseen item identifier.
	victim := itemset.Item(idx.Manifest().Shards[0].Item)
	last := tree.Root().Children[len(tree.Root().Children)-1]
	graft := &Node{Item: 4096, Pattern: itemset.New(4096), Decomp: last.Decomp}
	report, err := commitNodes(idx, map[itemset.Item]*Node{
		victim: nil,
		4096:   graft,
		4097:   nil, // absent item: removing it is a no-op
	})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(report.Removed) != 1 || report.Removed[0] != victim {
		t.Fatalf("Removed = %v, want [%d]", report.Removed, victim)
	}
	if len(report.Added) != 1 || report.Added[0] != 4096 {
		t.Fatalf("Added = %v, want [4096]", report.Added)
	}
	if len(report.Replaced) != 0 {
		t.Fatalf("Replaced = %v, want none", report.Replaced)
	}
	if got := report.Touched(); !got.Equal(itemset.New(victim, 4096)) {
		t.Fatalf("Touched = %v", got)
	}

	reopened, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded after commit: %v", err)
	}
	if _, ok := reopened.Entry(victim); ok {
		t.Fatalf("removed shard %d still in manifest", victim)
	}
	sub, err := reopened.LoadShard(4096)
	if err != nil {
		t.Fatalf("LoadShard(4096): %v", err)
	}
	if sub.Item != 4096 || len(sub.Children) != len(graft.Children) {
		t.Fatalf("added shard loads wrong subtree")
	}
	// The removed shard's file is gone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), fmt.Sprintf("shard-%d-", victim)) {
			t.Fatalf("removed shard's file %s survived", e.Name())
		}
	}
}

// TestWriteShardedRemovesStaleShardFiles rewrites a smaller tree over an
// index that deltas have changed (a replaced shard under a new content name,
// an added shard the new tree lacks): after
// the rewrite the directory holds the manifest and exactly the files it
// references — nothing of the previous index lingers.
func TestWriteShardedRemovesStaleShardFiles(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	if _, err := indexOf(t, tree).Write(dir); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	first, last := tree.Root().Children[0], tree.Root().Children[len(tree.Root().Children)-1]
	replacement := &Node{Item: first.Item, Pattern: first.Pattern, Decomp: first.Decomp} // same root, children dropped
	graft := &Node{Item: 4096, Pattern: itemset.New(4096), Decomp: last.Decomp}
	if _, err := commitNodes(idx, map[itemset.Item]*Node{first.Item: replacement, 4096: graft}); err != nil {
		t.Fatalf("commit: %v", err)
	}

	smaller := Build(randomNetwork(rand.New(rand.NewSource(19)), 16, 40, 3, 4), BuildOptions{})
	if got, had := len(smaller.Root().Children), len(tree.Root().Children); got == 0 || got >= had {
		t.Fatalf("smaller tree has %d shards, the original %d; pick other parameters", got, had)
	}
	m, err := indexOf(t, smaller).Write(dir)
	if err != nil {
		t.Fatalf("Write over the updated index: %v", err)
	}
	want := map[string]bool{ManifestName: true}
	for _, e := range m.Shards {
		want[e.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("stale file %s survived the rewrite", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("file %s is referenced by the new manifest but missing", name)
	}
	reopened, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded after the rewrite: %v", err)
	}
	if _, err := reopened.LoadTree(); err != nil {
		t.Fatalf("LoadTree after the rewrite: %v", err)
	}
}

// mutateRandomly applies a few random changes through the network's own
// mutators — the ones a delta is made of: edges added and removed,
// transactions added (sometimes with a brand-new item) and removed, a vertex
// tombstoned.
func mutateRandomly(t *testing.T, rng *rand.Rand, nw *dbnet.Network, items int) {
	t.Helper()
	n := nw.NumVertices()
	vertex := func() graph.VertexID { return graph.VertexID(rng.Intn(n)) }
	for i, steps := 0, 1+rng.Intn(6); i < steps; i++ {
		switch rng.Intn(5) {
		case 0:
			if a, b := vertex(), vertex(); a != b {
				nw.MustAddEdge(a, b)
			}
		case 1:
			if edges := nw.Graph().Edges(); len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				nw.RemoveEdge(e.U, e.V)
			}
		case 2:
			tx := itemset.New(itemset.Item(rng.Intn(items)), itemset.Item(rng.Intn(items+2)))
			if err := nw.AddTransaction(vertex(), tx); err != nil {
				t.Fatal(err)
			}
		case 3:
			v := vertex()
			if txs := nw.Database(v).Transactions(); len(txs) > 0 {
				if _, err := nw.RemoveTransaction(v, txs[rng.Intn(len(txs))].Clone()); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if err := nw.ClearVertex(vertex()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRebuildSubtreeMatchesBuild asserts, over many random networks, that
// after random changes re-decomposing one top-level item from the live
// network — whose indexes the mutators patched in place — reproduces the
// corresponding first-level subtree of a from-scratch Build of a pristine
// copy of that network: level for level, thresholds compared with ==.
func TestRebuildSubtreeMatchesBuild(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const items = 5
		n := 10 + rng.Intn(8)
		nw := randomNetwork(rng, n, n*(3+rng.Intn(3)), items, 6)
		Build(nw, BuildOptions{}) // the index a serving process holds before the delta
		mutateRandomly(t, rng, nw, items)

		var buf bytes.Buffer
		if err := dbnet.Write(&buf, nw, nil); err != nil {
			t.Fatal(err)
		}
		pristine, _, err := dbnet.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		tree := Build(pristine, BuildOptions{})
		if err := tree.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		indexed := make(map[itemset.Item]*Node)
		for _, c := range tree.Root().Children {
			indexed[c.Item] = c
		}
		// Every item of the network, and one absent from every transaction.
		all := append(nw.Items(), 4096)
		rebuilt := RebuildSubtrees(nw, all)
		for _, it := range all {
			want := indexed[it]
			if (rebuilt[it] == nil) != (want == nil) {
				t.Fatalf("seed %d: RebuildSubtrees(%d) = %v, Build indexes %v", seed, it, rebuilt[it], want)
			}
			if want != nil {
				assertSameSubtree(t, want, rebuilt[it])
				compared += statsOf(want).Nodes
			}
		}
	}
	if compared < 300 {
		t.Fatalf("only %d nodes compared; the generator has drifted to trivial networks", compared)
	}
}

// assertSameSubtree compares two subtrees structurally: same patterns, same
// decompositions level by level.
func assertSameSubtree(t *testing.T, want, got *Node) {
	t.Helper()
	if !want.Pattern.Equal(got.Pattern) {
		t.Fatalf("pattern %v != %v", got.Pattern, want.Pattern)
	}
	if wn, gn := want.Decomp.NumEdges(), got.Decomp.NumEdges(); wn != gn {
		t.Fatalf("pattern %v: %d edges, want %d", want.Pattern, gn, wn)
	}
	if wl, gl := len(want.Decomp.Levels), len(got.Decomp.Levels); wl != gl {
		t.Fatalf("pattern %v: %d levels, want %d", want.Pattern, gl, wl)
	}
	for i := range want.Decomp.Levels {
		wl, gl := want.Decomp.Levels[i], got.Decomp.Levels[i]
		if wl.Alpha != gl.Alpha || len(wl.Removed) != len(gl.Removed) {
			t.Fatalf("pattern %v level %d: (α=%v,%d edges), want (α=%v,%d edges)",
				want.Pattern, i, gl.Alpha, len(gl.Removed), wl.Alpha, len(wl.Removed))
		}
		for j := range wl.Removed {
			if wl.Removed[j] != gl.Removed[j] {
				t.Fatalf("pattern %v level %d edge %d: %v, want %v", want.Pattern, i, j, gl.Removed[j], wl.Removed[j])
			}
		}
	}
	if len(want.Children) != len(got.Children) {
		gotItems := make([]itemset.Item, 0, len(got.Children))
		for _, c := range got.Children {
			gotItems = append(gotItems, c.Item)
		}
		wantItems := make([]itemset.Item, 0, len(want.Children))
		for _, c := range want.Children {
			wantItems = append(wantItems, c.Item)
		}
		t.Fatalf("pattern %v: children %v, want %v", want.Pattern, gotItems, wantItems)
	}
	for i := range want.Children {
		assertSameSubtree(t, want.Children[i], got.Children[i])
	}
}

// TestBuiltMaxDepthRoundTrips pins that the MaxDepth build bound survives
// the on-disk round trip — the engine's incremental-maintenance depth guard
// depends on it.
func TestBuiltMaxDepthRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nw := randomNetwork(rng, 16, 40, 5, 4)
	tree := Build(nw, BuildOptions{MaxDepth: 2})
	if got := tree.builtMaxDepth; got != 2 {
		t.Fatalf("BuiltMaxDepth = %d, want 2", got)
	}

	dir := t.TempDir()
	if _, err := indexOf(t, tree).Write(dir); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	if got := idx.Manifest().BuiltMaxDepth; got != 2 {
		t.Fatalf("manifest lost the bound: %d", got)
	}
	loaded, err := idx.LoadTree()
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	if got := loaded.builtMaxDepth; got != 2 {
		t.Fatalf("sharded round trip lost the bound: %d", got)
	}

	// Unbounded trees round-trip a zero bound and stay updatable.
	free := Build(nw, BuildOptions{})
	if got := free.builtMaxDepth; got != 0 {
		t.Fatalf("unbounded tree reports bound %d", got)
	}
}
