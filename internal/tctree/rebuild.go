package tctree

import (
	"math"
	"runtime"

	"themecomm/internal/dbnet"
	"themecomm/internal/itemset"
)

// RebuildSubtree re-decomposes the first-level subtree (shard) of one
// top-level item from the current state of the network, without touching any
// other shard: the incremental-maintenance counterpart of Build. It returns
// nil when the item's maximal pattern truss at α = 0 is empty — the shard no
// longer indexes anything and should be dropped.
//
// It runs expandSubtree, the routine Build runs for every top-level item, so
// the result is the corresponding first-level subtree of
// Build(nw, BuildOptions{}) bit for bit, thresholds included. Callers
// rebuilding an index built with a MaxDepth bound must re-run Build instead.
//
// The network must be quiescent (and Freeze-d if RebuildSubtree runs
// concurrently with other readers).
func RebuildSubtree(nw *dbnet.Network, item itemset.Item) *Node {
	root, _ := expandSubtree(nw, item, math.MaxInt, nil, nil)
	return root
}

// RebuildSubtrees rebuilds the shards of every given item in full and in
// parallel, returning item → new subtree (nil when the shard decomposed to
// nothing). The network is frozen first so concurrent reads are safe.
func RebuildSubtrees(nw *dbnet.Network, items itemset.Itemset) map[itemset.Item]*Node {
	out, _ := RebuildScoped(nw, items, nil, nil)
	return out
}

// RebuildScoped is RebuildSubtrees for the shards a delta affected, given the
// delta's scope — its witness transactions, computed before the delta was
// applied (delta.ScopeOf) — and the shards as they stood before it: prev
// returns an item's previous subtree, and is called once per item from the
// rebuild's workers. Only the patterns some witness contains are mined from
// nw, which must already carry the delta; every other node is carried over
// from the previous subtree, which is read and never modified — the new
// subtree shares the carried-over nodes with it. The result is what
// RebuildSubtrees returns, bit for bit.
//
// A shard is rebuilt in full when prev is nil or returns nil for its item —
// there is no previous version, it could not be read, or it is not known to
// have been current when the scope was taken — and when no witness contains
// the item.
func RebuildScoped(nw *dbnet.Network, items itemset.Itemset, scope []itemset.Itemset, prev func(itemset.Item) *Node) (map[itemset.Item]*Node, RebuildStats) {
	roots, stats := expandSubtrees(nw, items, math.MaxInt, runtime.GOMAXPROCS(0), scope, prev)
	out := make(map[itemset.Item]*Node, items.Len())
	for i, it := range items {
		out[it] = roots[i]
	}
	return out, stats
}
