package replication

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"path/filepath"

	"themecomm/internal/delta"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/journal"
)

// Primary is the writable replication role: updates are journaled, applied in
// memory, and persisted by checkpoints in the background or at Close. Open
// one with OpenPrimary, or construct it with NewPrimary, Add every journaled
// network, then call Recover exactly once before the first Apply — recovery
// replays the journal tail a previous process did not checkpoint.
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

// Writable returns the networks of fed that hold their database network: the
// members of a primary or a replica over fed.
func Writable(fed *federation.Federation) []*federation.Network {
	var out []*federation.Network
	for _, name := range fed.Names() {
		if n, ok := fed.Network(name); ok && n.DatabaseNetwork() != nil {
			out = append(out, n)
		}
	}
	return out
}

// JournalDir is where a writable index's journal lives unless a directory is
// named: journal/ in the directory holding the index, beside it whichever
// tool opens the pair, so the pair's stamps count in one journal.
func JournalDir(indexDir string) (string, error) {
	abs, err := filepath.Abs(indexDir)
	if err != nil {
		return "", fmt.Errorf("replication: %w", err)
	}
	return filepath.Join(filepath.Dir(abs), "journal"), nil
}

// OpenPrimary opens fed for writing: the journal in dir (when empty, the
// JournalDir every Writable network's index shares), every Writable network
// a member, recovered, and the checkpoint loop started. With no writable
// network it opens no journal and returns a nil Primary.
func OpenPrimary(fed *federation.Federation, dir string, opts Options) (*Primary, *RecoverStats, error) {
	members := Writable(fed)
	if len(members) == 0 {
		return nil, nil, nil
	}
	if dir == "" {
		var err error
		if dir, err = sharedJournalDir(members); err != nil {
			return nil, nil, err
		}
	}
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, nil, err
	}
	p := NewPrimary(j, opts)
	for _, n := range members {
		p.members[n.Name()] = &member{name: n.Name(), net: n}
	}
	stats, err := p.Recover()
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	p.Start()
	return p, stats, nil
}

// sharedJournalDir is the JournalDir every member's index shares.
func sharedJournalDir(members []*federation.Network) (dir string, err error) {
	for _, n := range members {
		nDir := ""
		if n.Engine().IndexDir() != "" {
			if nDir, err = JournalDir(n.Engine().IndexDir()); err != nil {
				return "", err
			}
		}
		if nDir == "" || (dir != "" && nDir != dir) {
			return "", fmt.Errorf("replication: network %q is not indexed in the directory of the other writable networks (journal %s); name a journal directory", n.Name(), dir)
		}
		dir = nDir
	}
	return dir, nil
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
			return nil, fmt.Errorf("replication: network %q: checkpoint stamp %d is beyond the head %d of the journal %s; the pair was checkpointed under another journal, or this one was lost or replaced", m.name, mFloor, stats.Head, p.j.Dir())
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

// Apply is the one write route (member.applyLocked): the delta's new item
// names travel in its journal record, and persisting waits for the next
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
	seq, res, err := m.applyLocked(d, 0, p.j)
	if err != nil {
		return nil, err
	}
	return &ApplyResult{Seq: seq, Result: res}, nil
}

// Close stops the primary (Stop) and closes its journal, even when the final
// checkpoint fails: the next writable open replays what it did not persist.
func (p *Primary) Close() error {
	err := p.Stop()
	return errors.Join(err, p.j.Close())
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
