package replication

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"

	"themecomm/internal/delta"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/journal"
)

// Primary is the writable replication role: updates are journaled, applied in
// memory, and persisted by background checkpoints. Construct with NewPrimary,
// Add every journaled network, then call Recover exactly once before the
// first Apply — recovery replays the journal tail a previous process did not
// checkpoint.
type Primary struct {
	role
	j         *journal.Journal
	recovered bool // guarded by mu
}

// NewPrimary wraps an open journal as a primary. The journal must not be
// shared with another primary: sequence numbers are assigned by appending.
func NewPrimary(j *journal.Journal, opts Options) *Primary {
	p := &Primary{j: j}
	p.init(opts)
	return p
}

// Journal returns the primary's journal, for serving the replication feed
// and the journal metrics.
func (p *Primary) Journal() *journal.Journal { return p.j }

// Add registers a federation network as a journaled member. Networks added
// before Recover have their journal floor established (and the crash window
// repaired) by Recover; a network added afterwards is treated as brand new —
// it starts at the current journal head, owning no earlier records.
func (p *Primary) Add(n *federation.Network) error {
	m, err := newMember(n)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recovered {
		m.applied = p.j.DurableSeq()
		m.flushed = m.applied
	}
	return p.addLocked(m)
}

// Member reports whether the named network is a journaled member.
func (p *Primary) Member(name string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.members[name]
	return ok
}

// RecoverStats summarizes what Recover did.
type RecoverStats struct {
	// Replayed is the number of journal records applied to a member.
	Replayed int
	// Skipped is the number of records already covered by a member's
	// checkpoint floor, or naming a network that is not a member.
	Skipped int
	// Resynced lists members whose index was rebuilt from the network file
	// (the checkpoint crash window).
	Resynced []string
	// Head is the journal's durable head after recovery.
	Head uint64
}

// Recover brings every member back to the journal's durable head: per-member
// stamps are reconciled (see the package comment) and the journal tail beyond
// each member's floor is replayed through the in-memory apply path. It must
// be called exactly once, after every startup Add and before the first Apply.
func (p *Primary) Recover() (*RecoverStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recovered {
		return nil, errors.New("replication: primary already recovered")
	}
	stats := &RecoverStats{Head: p.j.DurableSeq()}
	floor := uint64(math.MaxUint64)
	for _, m := range p.members {
		mFloor, resynced, err := m.recoverFloor()
		if err != nil {
			return nil, err
		}
		if resynced {
			stats.Resynced = append(stats.Resynced, m.name)
			if p.opts.Logger != nil {
				p.opts.Logger.Warn("index resynced from network file after checkpoint crash window",
					slog.String("network", m.name), slog.Uint64("seq", mFloor))
			}
		}
		if mFloor > stats.Head {
			// The member's stamps claim records the journal does not have:
			// the journal was lost or truncated behind its consumers.
			return nil, fmt.Errorf("replication: network %q: checkpoint stamp %d is beyond the journal head %d; the journal directory was lost or replaced", m.name, mFloor, stats.Head)
		}
		if mFloor < floor {
			floor = mFloor
		}
	}
	if len(p.members) > 0 && floor < stats.Head {
		rd := p.j.Range(floor)
		defer rd.Close()
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("replication: recovery read: %w", err)
			}
			m, ok := p.members[rec.Network]
			if !ok {
				stats.Skipped++
				continue
			}
			applied, err := m.replay(&rec)
			if err != nil {
				return nil, err
			}
			if applied {
				stats.Replayed++
			} else {
				stats.Skipped++
			}
		}
	}
	p.recovered = true
	if p.opts.Logger != nil {
		p.opts.Logger.Info("journal recovery complete",
			slog.Uint64("head", stats.Head),
			slog.Int("replayed", stats.Replayed),
			slog.Int("skipped", stats.Skipped))
	}
	return stats, nil
}

// ApplyResult is the outcome of one journaled update.
type ApplyResult struct {
	// Seq is the journal sequence number durably assigned to the delta: the
	// delta was fsynced before the call returned.
	Seq uint64
	// Result is the engine's apply outcome.
	Result *engine.DeltaResult
}

// Apply is the primary's update fast path: validate, append to the journal
// (group-committed — concurrent updates share one fsync), and apply in
// memory. The item names the delta introduces (d.Names, numbered in place by
// delta.Delta.Number) travel in the record and enter the member's dictionary
// once the record is durable. Persisting waits for the next
// checkpoint. Updates to the same member serialize; updates to different
// members batch into the same journal flush.
func (p *Primary) Apply(name string, d *delta.Delta) (*ApplyResult, error) {
	p.mu.RLock()
	m := p.members[name]
	recovered := p.recovered
	p.mu.RUnlock()
	if m == nil {
		return nil, fmt.Errorf("replication: no network %q", name)
	}
	if !recovered {
		return nil, errors.New("replication: primary has not recovered yet")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return nil, m.broken
	}
	nw, dict := m.net.DatabaseNetwork(), m.net.Dictionary()
	// Number the names the delta introduces against the dictionary as it
	// stands under the lock, and validate before journaling: a record once
	// appended WILL be replayed, so nothing Apply could reject may reach the
	// journal, and a rejected delta's names never reach the dictionary.
	d.Number(dict)
	if err := d.Validate(nw); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := delta.Write(&buf, d); err != nil {
		return nil, err
	}
	eng := m.net.Engine()
	// The record's epoch is the one this delta installs: applies to this
	// member are serialized here and ApplyDeltaInMemory bumps by exactly one.
	seq, err := p.j.Append(name, eng.IndexEpoch()+1, buf.Bytes())
	if err != nil {
		return nil, err
	}
	var res *engine.DeltaResult
	if err = d.Intern(dict); err == nil {
		res, err = eng.ApplyDeltaInMemory(nw, d)
	}
	if err != nil {
		// The journal now holds a record the serving state does not. Fail
		// stop for this member rather than serve a state that diverges from
		// what recovery and every replica will replay.
		m.broken = fmt.Errorf("replication: network %q: journaled seq %d but apply failed: %w", name, seq, err)
		return nil, m.broken
	}
	m.applied = seq
	return &ApplyResult{Seq: seq, Result: res}, nil
}

// Status reports the primary's replication state.
func (p *Primary) Status() Status {
	js := p.j.Stats()
	st := Status{
		Role:       "primary",
		JournalSeq: js.LastSeq,
		Journal:    &js,
		Networks:   make(map[string]NetworkStatus),
	}
	for _, m := range p.list() {
		st.Networks[m.name] = m.status()
	}
	return st
}
