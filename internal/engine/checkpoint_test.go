package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"themecomm/internal/delta"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// TestApplyDeltaInMemoryParity drives the journaled fast path: a chain of
// deltas applied purely in memory must answer every query exactly like a
// from-scratch rebuild, both before and after the background Checkpoint, and
// the checkpoint itself must be invisible (no epoch bump) while making the
// on-disk index complete (a reopened engine answers identically).
func TestApplyDeltaInMemoryParity(t *testing.T) {
	const items = 5
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng, 14, 34, items, 3)
		twin := randomNetwork(rand.New(rand.NewSource(seed)), 14, 34, items, 3)
		tree := tctree.Build(nw, tctree.BuildOptions{})
		if tree.NumNodes() == 0 {
			continue
		}
		dir := t.TempDir()
		if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
			t.Fatalf("WriteShardedAs: %v", err)
		}
		idx, err := tctree.OpenSharded(dir)
		if err != nil {
			t.Fatalf("OpenSharded: %v", err)
		}
		eng, err := NewLazy(idx, Options{CacheSize: 64, MaxResidentShards: 3})
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}
		// Warm the cache so invalidation is exercised.
		for _, q := range deltaTestQueries() {
			if _, err := eng.QueryContext(context.Background(), q.Pattern, q.Alpha); err != nil {
				t.Fatalf("pre-delta query: %v", err)
			}
		}

		// A chain of in-memory deltas, like a burst of journaled updates
		// between checkpoints.
		var deltas []*delta.Delta
		for i := 0; i < 3; i++ {
			d := randomDeltaFor(rng, nw, items)
			res, err := eng.ApplyDeltaInMemory(nw, d)
			if err != nil {
				t.Fatalf("seed %d: ApplyDeltaInMemory %d: %v", seed, i, err)
			}
			if res.Epoch != eng.IndexEpoch() {
				t.Fatalf("seed %d: epoch mismatch", seed)
			}
			deltas = append(deltas, d)
		}
		if eng.DirtyShards() == 0 {
			t.Fatalf("seed %d: no dirty shards after in-memory deltas", seed)
		}
		// The on-disk manifest must NOT have moved yet.
		if idx.JournalSeq() != 0 {
			t.Fatalf("seed %d: manifest seq moved before checkpoint", seed)
		}

		for _, d := range deltas {
			if err := delta.Apply(twin, d); err != nil {
				t.Fatalf("Apply on twin: %v", err)
			}
		}
		fresh, err := New(builtIndex(t, twin), Options{})
		if err != nil {
			t.Fatalf("fresh engine: %v", err)
		}
		assertQueryParity(t, seed, "pre-checkpoint", eng, fresh)

		// Checkpoint: folds the dirty shards into the index, stamps the seq,
		// bumps nothing query-visible.
		epochBefore := eng.IndexEpoch()
		preCommitRan := false
		report, err := eng.Checkpoint(42, func() error { preCommitRan = true; return nil })
		if err != nil {
			t.Fatalf("seed %d: Checkpoint: %v", seed, err)
		}
		if report == nil || !preCommitRan {
			t.Fatalf("seed %d: Checkpoint report=%v preCommit=%v", seed, report, preCommitRan)
		}
		if eng.IndexEpoch() != epochBefore {
			t.Fatalf("seed %d: checkpoint bumped the epoch", seed)
		}
		if eng.DirtyShards() != 0 {
			t.Fatalf("seed %d: %d dirty shards survive the checkpoint", seed, eng.DirtyShards())
		}
		if got := idx.JournalSeq(); got != 42 {
			t.Fatalf("seed %d: manifest JournalSeq = %d, want 42", seed, got)
		}
		assertQueryParity(t, seed, "post-checkpoint", eng, fresh)

		// The index on disk is now complete: a cold reopen answers the same.
		idx2, err := tctree.OpenSharded(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := idx2.JournalSeq(); got != 42 {
			t.Fatalf("seed %d: reopened JournalSeq = %d, want 42", seed, got)
		}
		cold, err := NewLazy(idx2, Options{})
		if err != nil {
			t.Fatalf("cold engine: %v", err)
		}
		assertQueryParity(t, seed, "cold-reopen", cold, fresh)

		// A second checkpoint with nothing dirty and the seq already stamped
		// is a no-op.
		if rep, err := eng.Checkpoint(42, nil); err != nil || rep != nil {
			t.Fatalf("seed %d: idle checkpoint = (%v, %v), want (nil, nil)", seed, rep, err)
		}
		// One with a write-back to run is not idle: an update that affected
		// no shard still changed the network the hook persists.
		hookRan := false
		if _, err := eng.Checkpoint(42, func() error { hookRan = true; return nil }); err != nil || !hookRan {
			t.Fatalf("seed %d: checkpoint with nothing dirty: err %v, hook ran %v", seed, err, hookRan)
		}
		// A seq-only checkpoint still advances the stamp (a delta can affect
		// zero shards, yet replay must not re-apply it).
		if _, err := eng.Checkpoint(43, nil); err != nil {
			t.Fatalf("seed %d: seq-only checkpoint: %v", seed, err)
		}
		if got := idx.JournalSeq(); got != 43 {
			t.Fatalf("seed %d: seq-only checkpoint left JournalSeq at %d", seed, got)
		}
	}
}

func assertQueryParity(t *testing.T, seed int64, phase string, got, want *Engine) {
	t.Helper()
	for _, q := range deltaTestQueries() {
		g, err := got.QueryContext(context.Background(), q.Pattern, q.Alpha)
		if err != nil {
			t.Fatalf("seed %d %s: query: %v", seed, phase, err)
		}
		w, err := want.QueryContext(context.Background(), q.Pattern, q.Alpha)
		if err != nil {
			t.Fatalf("seed %d %s: fresh query: %v", seed, phase, err)
		}
		assertEqualCommunities(t, g.Communities, w.Communities)
	}
}

// TestCheckpointPreCommitFailure pins the abort path: when the pre-commit
// hook fails (the network write-back could not be made durable), the staged
// files are discarded, the manifest stays put, the dirty set survives, and a
// retry succeeds.
func TestCheckpointPreCommitFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(rng, 14, 34, 5, 3)
	tree := tctree.Build(nw, tctree.BuildOptions{})
	dir := t.TempDir()
	if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		t.Fatal(err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyDeltaInMemory(nw, randomDeltaFor(rng, nw, 5)); err != nil {
		t.Fatal(err)
	}
	dirty := eng.DirtyShards()
	boom := errors.New("disk full")
	if _, err := eng.Checkpoint(7, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint error = %v, want %v", err, boom)
	}
	if idx.JournalSeq() != 0 {
		t.Fatal("manifest seq moved despite the aborted checkpoint")
	}
	if eng.DirtyShards() != dirty {
		t.Fatalf("dirty set changed across the aborted checkpoint: %d -> %d", dirty, eng.DirtyShards())
	}
	if _, err := eng.Checkpoint(7, nil); err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	if idx.JournalSeq() != 7 || eng.DirtyShards() != 0 {
		t.Fatalf("retry left seq=%d dirty=%d", idx.JournalSeq(), eng.DirtyShards())
	}
}

// TestApplyDeltaInMemoryEager covers the eager-engine arm: no index on disk,
// the in-memory swap IS the whole update, and a Checkpoint is its pre-commit
// hook alone — the caller's network write-back — with nothing committed.
func TestApplyDeltaInMemoryEager(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw := randomNetwork(rng, 14, 34, 5, 3)
	twin := randomNetwork(rand.New(rand.NewSource(5)), 14, 34, 5, 3)
	eng, err := New(builtIndex(t, nw), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDeltaFor(rng, nw, 5)
	if _, err := eng.ApplyDeltaInMemory(nw, d); err != nil {
		t.Fatalf("ApplyDeltaInMemory: %v", err)
	}
	if err := delta.Apply(twin, d); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(builtIndex(t, twin), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertQueryParity(t, 5, "eager", eng, fresh)
	ran := false
	if report, err := eng.Checkpoint(1, func() error { ran = true; return nil }); err != nil || report != nil || !ran {
		t.Fatalf("eager Checkpoint = (%v, %v), hook ran %v; want (nil, nil) after running the hook", report, err, ran)
	}
	boom := errors.New("disk full")
	if _, err := eng.Checkpoint(2, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("eager Checkpoint error = %v, want the hook's %v", err, boom)
	}
	if report, err := eng.Checkpoint(3, nil); err != nil || report != nil {
		t.Fatalf("eager Checkpoint without a hook = (%v, %v), want (nil, nil)", report, err)
	}
}

// TestDirtyShardsAreChargedAtTheirRealSize pins the residency accounting of
// shards an in-memory update rebuilt and no checkpoint has written yet: they
// are bytes on the heap, so Stats reports their size, the residency group is
// charged it, and a byte budget makes file-backed shards give way to them —
// while they themselves, having no file to come back from, are never evicted.
// The checkpoint that swaps them for file-backed shards returns the charge.
func TestDirtyShardsAreChargedAtTheirRealSize(t *testing.T) {
	tree := buildTestTree(t, 11)
	nw := testNetwork(11)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustQueryByAlpha(t, eng, 0)

	victim := tree.Root().Children[0].Item
	res, err := eng.ApplyDeltaInMemory(nw, patternTriangleDelta(nw, itemset.New(victim)))
	if err != nil {
		t.Fatal(err)
	}
	if eng.DirtyShards() == 0 {
		t.Fatal("the update left no dirty shard")
	}
	check := func(phase string, wantDirtyResident bool) (dirtyBytes int64) {
		t.Helper()
		st := eng.Stats()
		var sum int64
		for _, sh := range st.ShardResidency {
			sum += sh.Bytes
			if !res.Affected.Contains(itemset.Item(sh.Item)) {
				continue
			}
			if sh.Resident != wantDirtyResident {
				t.Fatalf("%s: rebuilt shard %d resident = %v", phase, sh.Item, sh.Resident)
			}
			if sh.Resident && sh.Bytes <= 0 {
				t.Fatalf("%s: rebuilt shard %d is in memory and reports %d bytes", phase, sh.Item, sh.Bytes)
			}
			dirtyBytes += sh.Bytes
		}
		if sum != st.ResidentBytes || sum != eng.res.ResidentBytes() {
			t.Fatalf("%s: shards hold %d bytes, Stats reports %d, the residency group is charged %d",
				phase, sum, st.ResidentBytes, eng.res.ResidentBytes())
		}
		return dirtyBytes
	}
	dirtyBytes := check("dirty", true)

	// Under a budget the dirty shards all but fill, a file-backed shard can
	// only be in memory alone: each load evicts the one before it, and never
	// a dirty shard.
	eng.res.maxBytes = dirtyBytes + 1
	eng.res.enforce(nil)
	mustQueryByAlpha(t, eng, 0)
	check("dirty, under pressure", true)
	if n := eng.res.Resident(); n > 1 {
		t.Fatalf("%d file-backed shards are resident beside %d dirty bytes under a budget of %d", n, dirtyBytes, dirtyBytes+1)
	}
	eng.res.maxBytes = 0

	if _, err := eng.Checkpoint(1, nil); err != nil {
		t.Fatal(err)
	}
	if got := check("checkpointed", false); got != 0 {
		t.Fatalf("the checkpointed shards still charge %d bytes", got)
	}
}
