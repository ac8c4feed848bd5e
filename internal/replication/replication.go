// Package replication implements the primary/replica serving roles on top of
// the TCJRNL delta journal (internal/journal).
//
// A Primary (OpenPrimary) is the one write route of every network that holds
// its database network: every delta is validated, appended to the journal
// (one group-committed fsync covers a whole batch of concurrent updates), and
// applied to the serving state purely in memory (engine.ApplyDeltaInMemory).
// A checkpoint — in the background, or at Close — through the tenant's one
// checkpoint routine, federation.Network.Checkpoint, then folds the
// accumulated dirty shards into the on-disk index in one commit, stamping the
// journal position into both the network file (dbnet.WriteFileAtomicStamped,
// written first) and the index manifest (tctree.Manifest.JournalSeq). Crash
// recovery compares the two stamps per member and replays the journal tail
// through the same apply path, so a restart converges on exactly the
// pre-crash state:
//
//	network stamp == manifest stamp: the common case — both files describe
//	  the same checkpoint; replay the journal records after it.
//	network stamp >  manifest stamp: the crash hit between the network
//	  write-back (the pre-commit hook) and the manifest commit. The network
//	  file is authoritative — it is the only rebuild source — so the index
//	  is resynced from it in memory, checkpointed, and replay continues
//	  from the network stamp.
//	network stamp <  manifest stamp: impossible under the checkpoint
//	  ordering (the network file is always written first); it means the
//	  rebuild source was lost or replaced, and recovery refuses.
//
// A stamp beyond the journal's head (a pair checkpointed under another
// journal) is refused too.
//
// A Replica holds the same members, bootstrapped from a snapshot of the
// primary's index and network files, and replays journal records tailed from
// the primary through the identical path, tracking how far behind the
// primary's durable head it is. Replicas reuse Checkpoint to persist their
// progress locally, so a restarted replica resumes tailing from its own
// stamps instead of re-fetching the whole journal.
//
// Journal replay is NOT idempotent (re-applying an AddVertices or
// AddTransactions record duplicates state), so ordering discipline is strict:
// per member, the journal append order equals the in-memory apply order
// (both happen under the member's update lock), and a checkpoint stamps
// exactly the highest sequence number whose delta is included in the state
// being persisted.
package replication

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"sync"
	"time"

	"themecomm/internal/delta"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/journal"
)

// DefaultCheckpointInterval is the background checkpoint cadence when
// Options.CheckpointInterval is zero.
const DefaultCheckpointInterval = 5 * time.Second

// Options configures a replication role, primary or replica.
type Options struct {
	// CheckpointInterval is the cadence of the background checkpoint loop
	// run by Start. Zero means DefaultCheckpointInterval; negative disables
	// the loop (checkpoints then happen only through explicit Checkpoint
	// calls and the final one in Stop).
	CheckpointInterval time.Duration
	// Logger, when non-nil, receives recovery and checkpoint log lines;
	// without one, a failed background checkpoint goes to the standard log.
	Logger *slog.Logger
}

// PrimaryOptions is the name cmd/tcload configures a Primary by.
type PrimaryOptions = Options

// role is what the primary and the replica share: the member set and the
// background loop that checkpoints it.
type role struct {
	opts Options

	mu      sync.RWMutex
	members map[string]*member

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

func (r *role) init(opts Options) {
	if opts.CheckpointInterval == 0 {
		opts.CheckpointInterval = DefaultCheckpointInterval
	}
	r.opts, r.members, r.stop = opts, make(map[string]*member), make(chan struct{})
}

// addLocked registers m; the caller holds r.mu.
func (r *role) addLocked(m *member) error {
	if _, dup := r.members[m.name]; dup {
		return fmt.Errorf("replication: network %q is already a member", m.name)
	}
	r.members[m.name] = m
	return nil
}

// list snapshots the members.
func (r *role) list() []*member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m)
	}
	return out
}

// Checkpoint folds every member's in-memory progress — journaled updates on
// a primary, replayed records on a replica — into its on-disk index and
// network file, so a restart resumes from here. Members checkpoint
// independently; the error joins the per-member failures.
func (r *role) Checkpoint() error {
	var errs []error
	for _, m := range r.list() {
		if err := m.checkpoint(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Start launches the background checkpoint loop. It is a no-op when the
// configured interval is negative.
func (r *role) Start() {
	if r.opts.CheckpointInterval < 0 {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(r.opts.CheckpointInterval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
				switch err := r.Checkpoint(); {
				case err == nil:
				case r.opts.Logger != nil:
					r.opts.Logger.Error("background checkpoint failed", slog.String("error", err.Error()))
				default: // a failed persist is reported even without a logger
					log.Printf("background checkpoint failed: %v", err)
				}
			}
		}
	}()
}

// Stop halts the background loop and runs one final checkpoint, so a clean
// shutdown restarts with nothing to replay. A primary's journal is left
// open; closing it is the caller's responsibility.
func (r *role) Stop() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	return r.Checkpoint()
}

// member is one replicated tenant: a federation network plus its replication
// watermarks.
type member struct {
	name string
	net  *federation.Network

	// mu serializes this member's journal appends, in-memory applies and
	// checkpoints, keeping journal order equal to apply order: a member is
	// updated only through its role.
	mu      sync.Mutex
	applied uint64 // highest journal seq applied to the in-memory state
	flushed uint64 // highest journal seq persisted by a checkpoint
	broken  error  // sticky: the in-memory state diverged from the journal
}

func newMember(n *federation.Network) (*member, error) {
	if n.DatabaseNetwork() == nil {
		return nil, fmt.Errorf("replication: network %q has no database network attached", n.Name())
	}
	return &member{name: n.Name(), net: n}, nil
}

// recoverFloor establishes the member's replay floor from its on-disk stamps
// and fixes up the crash window (see the package comment). It returns the
// floor and whether the member's index had to be resynced from the network
// file.
func (m *member) recoverFloor() (floor uint64, resynced bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// W and M: the journal seq stamped into the network file and into the
	// index manifest (a missing or unstamped file, or an eager engine, reads
	// as 0).
	w, mStamp, err := m.net.Stamps()
	if err != nil {
		return 0, false, err
	}
	eng := m.net.Engine()
	switch {
	case w == mStamp:
		m.applied = mStamp
	case w > mStamp && !eng.Lazy():
		// An eager engine is built fresh from the network file, so the
		// in-memory state already includes everything up to W; there is no
		// on-disk index to lag behind it.
		m.applied = w
	case w > mStamp:
		// Crash window: the network file is ahead of the index manifest.
		// Rebuild the index content from the network file and persist it, so
		// the stamps agree again before replay continues.
		if err := eng.ResyncInMemory(m.net.DatabaseNetwork()); err != nil {
			return 0, false, fmt.Errorf("replication: network %q: resync: %w", m.name, err)
		}
		m.applied = w
		if err := m.checkpointLocked(); err != nil {
			return 0, true, err
		}
		resynced = true
	default: // w < mStamp
		return 0, false, fmt.Errorf("replication: network %q: network file stamp %d is behind index manifest %d; the network file is the rebuild source and must never lag the index — restore it from a backup or rebuild the index", m.name, w, mStamp)
	}
	m.flushed = m.applied
	return m.applied, resynced, nil
}

// replay decodes and applies one journal record to the member (applyLocked).
// Records at or below the member's applied seq are already part of the state
// and are skipped. Replay is fail-stop: a record that cannot be decoded or
// applied, or that names an item other than the member's dictionary does,
// breaks the member, because skipping it would silently diverge from the
// journal every other role replays.
func (m *member) replay(rec *journal.Record) (applied bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return false, m.broken
	}
	if rec.Seq <= m.applied {
		return false, nil
	}
	d, err := delta.Read(bytes.NewReader(rec.Payload), nil)
	if err != nil {
		m.broken = fmt.Errorf("replication: network %q: decode journal seq %d: %w", m.name, rec.Seq, err)
		return false, m.broken
	}
	if _, _, err := m.applyLocked(d, rec.Seq, nil); err != nil {
		return false, err
	}
	return true, nil
}

// applyLocked is the in-memory half of every update, live or replayed; the
// caller holds m.mu. A live delta (seq 0) is numbered against the dictionary
// (delta.Delta.Number) and validated before it is appended to j: a record
// once appended WILL be replayed, so nothing the apply could reject may reach
// the journal. A replayed delta arrives numbered, under its record's seq.
// Then its names enter the dictionary and it is applied in memory; a failure
// there breaks the member, whose state would diverge from the journal.
func (m *member) applyLocked(d *delta.Delta, seq uint64, j *journal.Journal) (uint64, *engine.DeltaResult, error) {
	nw, dict, eng := m.net.DatabaseNetwork(), m.net.Dictionary(), m.net.Engine()
	if m.broken != nil {
		return 0, nil, m.broken
	}
	if seq == 0 {
		d.Number(dict)
		if err := d.Validate(nw); err != nil {
			return 0, nil, err
		}
		var buf bytes.Buffer
		if err := delta.Write(&buf, d); err != nil {
			return 0, nil, err
		}
		// The record's epoch is the one this delta installs: applies to this
		// member are serialized here and ApplyDeltaInMemory bumps by exactly one.
		var err error
		if seq, err = j.Append(m.name, eng.IndexEpoch()+1, buf.Bytes()); err != nil {
			return 0, nil, err
		}
	}
	var res *engine.DeltaResult
	err := d.Intern(dict)
	if err == nil {
		res, err = eng.ApplyDeltaInMemory(nw, d)
	}
	if err != nil {
		m.broken = fmt.Errorf("replication: network %q: journal seq %d: apply failed: %w", m.name, seq, err)
		return 0, nil, m.broken
	}
	m.applied = seq
	return seq, res, nil
}

// checkpoint persists the member's in-memory progress through the tenant's
// one checkpoint routine (federation.Network.Checkpoint): the network file is
// rewritten and the dirty shards are folded into the on-disk index, both
// stamped with the highest applied seq. No-op when nothing advanced since the
// last checkpoint.
func (m *member) checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointLocked()
}

func (m *member) checkpointLocked() error {
	if m.broken != nil {
		return m.broken
	}
	if m.applied == m.flushed {
		return nil
	}
	if err := m.net.Checkpoint(m.applied); err != nil {
		return err
	}
	m.flushed = m.applied
	return nil
}

// status snapshots the member's watermarks.
func (m *member) status() NetworkStatus {
	m.mu.Lock()
	st := NetworkStatus{AppliedSeq: m.applied, FlushedSeq: m.flushed}
	if m.broken != nil {
		st.Broken = m.broken.Error()
	}
	m.mu.Unlock()
	st.DirtyShards = m.net.Engine().DirtyShards()
	return st
}

// NetworkStatus is one member's replication watermarks, as reported by
// Status on both roles.
type NetworkStatus struct {
	// AppliedSeq is the highest journal sequence number applied to the
	// member's in-memory serving state.
	AppliedSeq uint64 `json:"appliedSeq"`
	// FlushedSeq is the highest journal sequence number made durable by a
	// checkpoint (index manifest + stamped network file).
	FlushedSeq uint64 `json:"flushedSeq"`
	// DirtyShards counts in-memory shards awaiting the next checkpoint.
	DirtyShards int `json:"dirtyShards"`
	// Broken carries the member's sticky failure, if any: the member's state
	// diverged from the journal and it no longer accepts updates.
	Broken string `json:"broken,omitempty"`
}

// Status is a point-in-time view of a replication role, shaped for /healthz
// and the federation stats endpoint.
type Status struct {
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// JournalSeq is the durable journal head on a primary, and the highest
	// processed sequence number on a replica.
	JournalSeq uint64 `json:"journalSeq"`
	// HeadSeq is the primary's durable head as last observed by a replica;
	// 0 on a primary (its own head is JournalSeq).
	HeadSeq uint64 `json:"headSeq,omitempty"`
	// LagRecords is how many journal records the replica still has to apply
	// to reach HeadSeq; always 0 on a primary.
	LagRecords uint64 `json:"lagRecords"`
	// LagSeconds is the age of the replication lag: how long ago the primary
	// appended the newest record this replica has applied, 0 when caught up.
	LagSeconds float64 `json:"lagSeconds"`
	// Journal carries the journal activity counters; primary only.
	Journal *journal.Stats `json:"journal,omitempty"`
	// Networks maps member names to their watermarks.
	Networks map[string]NetworkStatus `json:"networks"`
}
