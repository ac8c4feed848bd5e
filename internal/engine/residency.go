package engine

import (
	"sync"
	"sync/atomic"
)

// ResidencyGroup is the residency accounting of one or more lazy engines: a
// global budget of resident shards (by count and by bytes), the logical clock
// that stamps shard use for LRU eviction, and the membership list the evictor
// scans. Every engine owns a private group by default; a federation passes one
// group to many engines (Options.SharedResidency) so the budget is enforced
// across every member's shards — a hot tenant loading shard after shard evicts
// the globally least-recently-used shard, whichever engine it belongs to, and
// can never hold more than the shared budget by itself.
type ResidencyGroup struct {
	// max is the count budget: the number of lazily loaded shards the group's
	// members may keep resident at once. maxBytes is the byte budget: the
	// summed payload size of the shards in memory, mapped or (pinned, but
	// counted) on the heap. Either bound being exceeded triggers eviction;
	// zero or negative means unlimited.
	max      int
	maxBytes int64

	// clock stamps shard use; because every member shares it, recency is
	// comparable across engines and eviction is globally least-recent-first.
	clock atomic.Int64
	// resident counts resident lazy shards across all members; bytes sums
	// their view sizes and those of the members' heap shards.
	resident atomic.Int64
	bytes    atomic.Int64

	// evictMu serializes eviction scans; mu guards members.
	evictMu sync.Mutex
	mu      sync.RWMutex
	members []*Engine
}

// NewResidencyGroupBytes returns a residency group bounded by both a shard
// count and a byte budget; either may be 0 (or negative) for unlimited.
// Eviction runs while either bound is exceeded.
func NewResidencyGroupBytes(maxResident int, maxBytes int64) *ResidencyGroup {
	if maxResident < 0 {
		maxResident = 0
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &ResidencyGroup{max: maxResident, maxBytes: maxBytes}
}

// MaxResident returns the group's count budget (0 = unlimited).
func (g *ResidencyGroup) MaxResident() int { return g.max }

// MaxResidentBytes returns the group's byte budget (0 = unlimited).
func (g *ResidencyGroup) MaxResidentBytes() int64 { return g.maxBytes }

// Resident returns the number of resident lazy shards across all members.
func (g *ResidencyGroup) Resident() int { return int(g.resident.Load()) }

// ResidentBytes returns the summed view size of the shards in memory across
// all members: resident lazy shards and heap shards.
func (g *ResidencyGroup) ResidentBytes() int64 { return g.bytes.Load() }

// add enrolls an engine: its file-backed shards become candidates for
// eviction, and its heap shards — pinned — are charged at their size.
func (g *ResidencyGroup) add(e *Engine) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members = append(g.members, e)
	for _, s := range e.table.Load().shards {
		g.bytes.Add(s.pinnedBytes())
	}
}

// remove withdraws an engine from the group, evicting its resident lazy
// shards and uncharging its heap shards: its budget returns to the others.
func (g *ResidencyGroup) remove(e *Engine) {
	g.mu.Lock()
	for i, m := range g.members {
		if m == e {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
	for _, s := range e.table.Load().shards {
		g.bytes.Add(-s.pinnedBytes())
		if freed, ok := evictShard(s); ok {
			g.resident.Add(-1)
			g.bytes.Add(-freed)
			e.evictions.Add(1)
		}
	}
}

// over reports whether either residency bound is currently exceeded.
func (g *ResidencyGroup) over() bool {
	if g.max > 0 && int(g.resident.Load()) > g.max {
		return true
	}
	return g.maxBytes > 0 && g.bytes.Load() > g.maxBytes
}

// enforce evicts globally least-recently-used resident shards until both
// budgets hold again. just, when non-nil, is exempt: evicting the shard that
// was loaded for the in-flight query would only thrash. Evicting a shard a
// concurrent query is still traversing is safe — the query keeps its
// immutable view snapshot; only the engine's reference is dropped (a
// memory-mapped view stays mapped until its last holder lets go).
func (g *ResidencyGroup) enforce(just *shard) {
	if g.max <= 0 && g.maxBytes <= 0 {
		return
	}
	g.evictMu.Lock()
	defer g.evictMu.Unlock()
	for g.over() {
		var victim *shard
		var owner *Engine
		var oldest int64
		g.mu.RLock()
		for _, m := range g.members {
			for _, s := range m.table.Load().shards {
				if s == just || s.load == nil || !s.resident() {
					continue
				}
				if lu := s.lastUsed.Load(); victim == nil || lu < oldest {
					victim, owner, oldest = s, m, lu
				}
			}
		}
		g.mu.RUnlock()
		if victim == nil {
			return
		}
		if freed, ok := evictShard(victim); ok {
			g.resident.Add(-1)
			g.bytes.Add(-freed)
			owner.evictions.Add(1)
		}
	}
}

// evictShard drops the shard's resident view, reporting the bytes it charged
// and whether anything was dropped. A fresh sync.Once is installed so the
// next touch reloads.
func evictShard(s *shard) (freed int64, ok bool) {
	if s.load == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.view == nil {
		return 0, false
	}
	freed = s.view.SizeBytes()
	s.view.Evicted()
	s.view = nil
	s.once = new(sync.Once)
	return freed, true
}
