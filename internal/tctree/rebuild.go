package tctree

import (
	"math"
	"runtime"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// RebuildSubtrees rebuilds the shards of every given item in full and in
// parallel, returning item → new subtree (nil when the shard decomposed to
// nothing). The network is frozen first so concurrent reads are safe.
func RebuildSubtrees(nw *dbnet.Network, items itemset.Itemset) map[itemset.Item]*Node {
	roots := make([]*Node, len(items))
	mineShards(nw, items, math.MaxInt, runtime.GOMAXPROCS(0), Scope{}, nil, func(i int, s splice) error {
		roots[i] = s.root
		return nil
	})
	out := make(map[itemset.Item]*Node, items.Len())
	for i, it := range items {
		out[it] = roots[i]
	}
	return out
}

// Scope is what a scoped rebuild reads of a delta's scope (delta.Scope
// computes it): the witnesses, and the seeds of each item on the network
// after the delta. The zero Scope rebuilds every shard in full.
type Scope struct {
	// Witnesses are the delta's witness transactions: a pattern no witness
	// contains keeps its node.
	Witnesses []itemset.Itemset
	// Seeds returns, ascending, the vertices every theme community of the
	// item's theme network the delta changed holds one of
	// (delta.Scope.Seeds). It is called from the rebuild's workers.
	Seeds func(item itemset.Item) []graph.VertexID
}

// RebuildScoped rebuilds the shards a delta affected, as bytes, given the
// delta's scope — computed before the delta was applied (delta.ScopeOf) — and
// the shards as they stood before it: prev returns an item's previous shard,
// and is called once per item from the rebuild's workers. Only the patterns
// some witness contains are mined from nw, which must already carry the
// delta, and only inside the shard's region: the item's seeds and every
// community of the previous root that holds one (BinShard.region). A mined
// node keeps the levels its previous version holds outside the region; every
// other node is carried over from the previous shard, walked in place and
// copied table run by table run, never decoded (splice.encode). So an
// update's cost follows the communities it touches, not the shards. The
// result maps every item to its encoded shard — nil when it decomposed to
// nothing — byte for byte what BuildIndex encodes for it.
//
// A shard is rebuilt in full when prev is nil or returns nil for its item —
// no previous version, an unreadable one, or one not known to have been
// current when the scope was taken — when no witness contains the item, and
// when scope has no Seeds.
func RebuildScoped(nw *dbnet.Network, items itemset.Itemset, scope Scope, prev func(itemset.Item) *BinShard) (map[itemset.Item]*EncodedShard, RebuildStats, error) {
	shards := make([]*EncodedShard, len(items))
	stats := make([]RebuildStats, len(items))
	err := mineShards(nw, items, math.MaxInt, runtime.GOMAXPROCS(0), scope, prev, func(i int, s splice) (err error) {
		stats[i] = s.stats
		if s.root != nil {
			shards[i], stats[i].Reused, err = s.encode()
		}
		return err
	})
	if err != nil {
		return nil, RebuildStats{}, err
	}
	out := make(map[itemset.Item]*EncodedShard, items.Len())
	var total RebuildStats
	for i, it := range items {
		out[it] = shards[i]
		total.add(stats[i])
	}
	return out, total, nil
}
