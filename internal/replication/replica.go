package replication

import (
	"math"
	"sync/atomic"
	"time"

	"themecomm/internal/federation"
	"themecomm/internal/journal"
)

// Replica is the read-only replication role: its members are bootstrapped
// from a snapshot of the primary's index and network files, and a tailer
// (internal/client) feeds it journal records which it replays through the
// same in-memory apply path the primary uses. Records arrive in sequence
// order; each member skips the prefix its snapshot already includes.
//
// A replica checkpoints like a primary — folding replayed state into its
// local index copy, in the background between Start and Stop — so a restart
// resumes tailing from its own stamps.
type Replica struct {
	role

	processed      atomic.Uint64 // highest journal seq processed (applied or skipped)
	head           atomic.Uint64 // primary durable head, as last observed
	lastMicros     atomic.Int64  // primary append time of the newest processed record
	skippedUnknown atomic.Uint64 // records naming a network that is not a member
}

// NewReplica returns an empty replica; register members with Add, then run
// the checkpoint loop with Start.
func NewReplica(opts Options) *Replica {
	r := &Replica{}
	r.init(opts)
	return r
}

// Add registers a federation network as a replicated member. The member's
// journal floor comes from its snapshot stamps; a snapshot caught in the
// checkpoint crash window is repaired exactly like on the primary.
func (r *Replica) Add(n *federation.Network) error {
	m, err := newMember(n)
	if err != nil {
		return err
	}
	if _, _, err := m.recoverFloor(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(m)
}

// From returns the journal position to resume tailing from: the tailer
// should request records with sequence numbers strictly greater than it.
// Before any record has been tailed this is the slowest member's snapshot
// floor; afterwards it is the cursor ApplyRecord advanced.
func (r *Replica) From() uint64 {
	if p := r.processed.Load(); p > 0 {
		return p
	}
	floor := uint64(math.MaxUint64)
	for _, m := range r.list() {
		m.mu.Lock()
		if m.applied < floor {
			floor = m.applied
		}
		m.mu.Unlock()
	}
	if floor == math.MaxUint64 {
		return 0
	}
	return floor
}

// ApplyRecord replays one tailed journal record. Records must arrive in
// ascending sequence order; a record for an unknown network is counted and
// skipped (the primary may host tenants this replica does not serve), and a
// record a member's snapshot already covers is skipped silently. Replay
// failures are fail-stop per member.
func (r *Replica) ApplyRecord(rec *journal.Record) error {
	r.mu.RLock()
	m := r.members[rec.Network]
	r.mu.RUnlock()
	if m == nil {
		r.skippedUnknown.Add(1)
	} else if _, err := m.replay(rec); err != nil {
		return err
	}
	r.processed.Store(rec.Seq)
	r.lastMicros.Store(rec.UnixMicros)
	if rec.Seq > r.head.Load() {
		r.head.Store(rec.Seq)
	}
	return nil
}

// ObserveHead records the primary's durable head, as reported by the feed
// (head frames of GET /api/v1/journal): it is what lag is measured against
// while no records are flowing.
func (r *Replica) ObserveHead(seq uint64) {
	for {
		cur := r.head.Load()
		if seq <= cur || r.head.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// SkippedUnknown returns how many tailed records named a network that is not
// a member of this replica.
func (r *Replica) SkippedUnknown() uint64 { return r.skippedUnknown.Load() }

// Status reports the replica's replication state. Lag is measured against
// the highest primary head observed: LagRecords counts the records still to
// apply, LagSeconds is how long ago the primary appended the newest record
// this replica has processed (0 when caught up).
func (r *Replica) Status() Status {
	processed := r.From()
	head := r.head.Load()
	if head < processed {
		head = processed
	}
	st := Status{
		Role:       "replica",
		JournalSeq: processed,
		HeadSeq:    head,
		LagRecords: head - processed,
		Networks:   make(map[string]NetworkStatus),
	}
	if st.LagRecords > 0 {
		if micros := r.lastMicros.Load(); micros > 0 {
			st.LagSeconds = time.Since(time.UnixMicro(micros)).Seconds()
			if st.LagSeconds < 0 {
				st.LagSeconds = 0
			}
		}
	}
	for _, m := range r.list() {
		st.Networks[m.name] = m.status()
	}
	return st
}
