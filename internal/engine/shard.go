package engine

import (
	"sync"
	"sync/atomic"

	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// shard is one partition of the TC-Tree: the subtree rooted at a first-level
// node. Every pattern indexed inside the shard contains the shard's root
// item, so a query (q, α_q) with root item ∉ q can skip the whole shard
// without visiting a single node — and, when the shard is file-backed,
// without even reading the shard file from disk. A struct is immutable apart
// from its residency state (view, err, once): an index update never edits a
// shard in place, it installs a new struct (Engine.replaceShardsLocked).
type shard struct {
	// item is the shard's root item.
	item itemset.Item

	// load validates the shard's file from the on-disk index against the
	// manifest entry the struct was built from, through the one mapping of
	// the file the struct keeps across evictions; nil for a heap shard (bytes
	// encoded in-process that no file holds), whose view is fixed at
	// construction and never evicted.
	load func() (*tctree.BinShard, error)

	// mu guards view, err and once. view is the resident query surface (nil
	// while not loaded); err is the sticky load error, or the poison of a
	// struct that left the table; once serializes the in-flight load and is
	// replaced on every eviction so the shard can be loaded again later.
	mu   sync.Mutex
	view *tctree.BinShard
	err  error
	once *sync.Once

	// nodes, depth and maxAlpha are the shard's catalogue statistics: node
	// count, longest indexed pattern, and α* bound, taken from the shard's
	// manifest entry (so they are known without loading the shard). bloom is
	// the item filter the planner consults for containment queries.
	nodes    int
	depth    int
	maxAlpha float64
	bloom    *tctree.ItemBloom

	// lastUsed is the engine's logical clock value at the shard's most
	// recent traversal; the eviction policy drops the resident shard with
	// the smallest value. loads counts completed disk loads.
	lastUsed atomic.Int64
	loads    atomic.Uint64
}

// resident reports whether the view is in memory; a heap shard's always is.
func (s *shard) resident() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view != nil
}

// meta returns the shard's catalogue statistics.
func (s *shard) meta() (nodes, depth int, maxAlpha float64) {
	return s.nodes, s.depth, s.maxAlpha
}

// pinnedBytes is what a heap shard charges the residency group while it is in
// the table; 0 for a file-backed shard, charged only while resident.
func (s *shard) pinnedBytes() int64 {
	if s.load != nil {
		return 0
	}
	return s.view.SizeBytes()
}

// sizeBytes returns the resident view's memory charge (0 when not resident).
func (s *shard) sizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.view == nil {
		return 0
	}
	return s.view.SizeBytes()
}

// info returns the shard's catalogue for the planner. It takes no lock: the
// catalogue is fixed at construction.
func (s *shard) info() ShardInfo {
	return ShardInfo{
		Item:     s.item,
		Nodes:    s.nodes,
		Depth:    s.depth,
		MaxAlpha: s.maxAlpha,
		Bloom:    s.bloom,
	}
}
