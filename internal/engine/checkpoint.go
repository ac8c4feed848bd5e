package engine

import (
	"fmt"

	"themecomm/internal/dbnet"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// This file implements the one way the engine persists: Checkpoint.
// ApplyDeltaInMemory (engine.go) only ever changes what queries read — the
// rebuilt shards are swapped into the live table as heap shards and join the
// dirty set — and every route that writes an index reaches the disk through a
// checkpoint, taken either right after the update (a server without a
// journal, offline tcupdate: federation.Network.ApplyDelta) or in the
// background after the journal made the update durable (replication):
//
//	Checkpoint: write the dirty shards' bytes as they are served, run the
//	  caller's write-back (the stamped network file), stamp the journal seq
//	  into the manifest, commit once, and swap the dirty heap shards for
//	  file-backed ones. Queries see identical content before and after, so
//	  no epoch bump and no cache purge.
//
// Crash recovery replays journal records after the manifest's JournalSeq
// through ApplyDeltaInMemory, converging on exactly the pre-crash state.

// markDirty records shards as ahead of the on-disk index, for the next
// Checkpoint to write. Callers hold applyMu.
func (e *Engine) markDirty(shards map[itemset.Item]*tctree.EncodedShard) {
	if e.idx == nil {
		return
	}
	if e.dirty == nil {
		e.dirty = make(map[itemset.Item]*tctree.EncodedShard, len(shards))
	}
	for it, enc := range shards {
		e.dirty[it] = enc
	}
}

// DirtyShards returns how many in-memory shards have run ahead of the
// on-disk index and await the next Checkpoint.
func (e *Engine) DirtyShards() int {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	return len(e.dirty)
}

// IndexJournalSeq returns the journal sequence number stamped into the
// on-disk index manifest — the checkpoint marker crash recovery replays
// from. It is 0 for an engine without an on-disk index, or for an index
// that has never been checkpointed.
func (e *Engine) IndexJournalSeq() uint64 {
	if e.idx == nil {
		return 0
	}
	return e.idx.JournalSeq()
}

// IndexDir returns the directory of the engine's on-disk index; empty for an
// engine without one.
func (e *Engine) IndexDir() string {
	if e.idx == nil {
		return ""
	}
	return e.idx.Dir()
}

// ResyncInMemory rebuilds the engine's whole serving state from nw,
// installing every shard as a dirty heap one — as if a single delta had
// touched every item. It is the recovery fix-up for the checkpoint crash
// window: when the stamped network file (written by the pre-commit hook) is
// ahead of the index manifest, the network file is authoritative and the
// index content must be rebuilt to match before journal replay continues; a
// following Checkpoint persists the rebuilt shards. Unlike a checkpoint, a
// resync may change answers, so the epoch is bumped and the engine's cached
// answers purged.
func (e *Engine) ResyncInMemory(nw *dbnet.Network) error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.idx == nil {
		return fmt.Errorf("engine: resync requires a lazy engine over a sharded index")
	}
	// The union covers items to add or replace (in nw) and items to remove
	// (in the table but decomposing to nothing in nw).
	affected := nw.Items().Union(e.table.Load().items).Union(e.pendingAffected)
	shards, _, err := tctree.RebuildScoped(nw, affected, tctree.Scope{}, nil)
	if err != nil {
		return err
	}
	_, _, err = e.install(affected, shards)
	return err
}

// Checkpoint folds every dirty shard into the on-disk index with one staged
// commit, stamping journalSeq into the manifest (see
// tctree.Manifest.JournalSeq) so recovery knows which journal records the
// index already includes. Between staging and the commit it runs preCommit
// (nil to skip) — the hook the serving layer uses to persist the updated
// network file, stamped with the same seq, so the network file is never
// behind the index; if the hook fails the staged files are swept, the
// index is untouched and the dirty shards wait for the next checkpoint.
//
// After the manifest commit the dirty heap shards are swapped for plain
// file-backed shards under the residency budget. The files hold the very
// bytes the heap shards served, so the epoch is NOT bumped and no cache entry
// is purged: queries cannot observe a checkpoint. Updates serialize behind it
// (applyMu), queries do not (updateMu is held only for the swap-back); the
// files the manifest no longer names are swept after updateMu is released.
// applyMu also makes the engine the one writer of its index directory, which
// the sweep relies on (tctree.StagedShards.Sweep).
//
// Checkpoint with no dirty shards, journalSeq already stamped and no
// preCommit is a no-op returning (nil, nil). An engine without an on-disk
// index (New) has nothing to commit: its checkpoint is preCommit alone.
func (e *Engine) Checkpoint(journalSeq uint64, preCommit func() error) (*tctree.CommitReport, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if e.idx == nil {
		if preCommit == nil {
			return nil, nil
		}
		return nil, preCommit()
	}
	if preCommit == nil && len(e.dirty) == 0 && e.idx.JournalSeq() >= journalSeq {
		return nil, nil
	}
	staged, err := e.idx.StageShards(e.dirty)
	if err != nil {
		return nil, err
	}
	staged.SetJournalSeq(journalSeq)
	if preCommit != nil {
		if err := preCommit(); err != nil {
			staged.Sweep()
			return nil, err
		}
	}
	e.updateMu.Lock()
	report, err := staged.Commit()
	if err == nil {
		// Swap the dirty heap shards for file-backed ones: identical content,
		// now loadable (and evictable) from the committed files.
		e.replaceShardsLocked(report.Touched(), e.committedShard)
		e.dirty = nil
	}
	e.updateMu.Unlock()
	staged.Sweep()
	return report, err
}
