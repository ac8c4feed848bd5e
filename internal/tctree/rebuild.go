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
	return expandSubtree(nw, item, math.MaxInt)
}

// RebuildSubtrees rebuilds the shards of every given item in parallel,
// returning item → new subtree (nil when the shard decomposed to nothing).
// The network is frozen first so concurrent reads are safe.
func RebuildSubtrees(nw *dbnet.Network, items itemset.Itemset) map[itemset.Item]*Node {
	roots := expandSubtrees(nw, items, math.MaxInt, runtime.GOMAXPROCS(0))
	out := make(map[itemset.Item]*Node, items.Len())
	for i, it := range items {
		out[it] = roots[i]
	}
	return out
}

// SetSubtree installs, replaces or removes the first-level subtree of one
// top-level item on an in-memory tree, keeping the node count consistent: a
// nil root removes the item's subtree, a non-nil root (whose pattern must be
// the single item) replaces it or is inserted in item order. It is the
// whole-tree counterpart of ShardedIndex.CommitShards; callers must not
// mutate the tree while other goroutines read it.
func (t *Tree) SetSubtree(item itemset.Item, root *Node) {
	if t == nil || t.root == nil {
		return
	}
	for i, c := range t.root.Children {
		if c.Item != item {
			continue
		}
		t.numNodes -= statsOf(c).Nodes
		if root == nil {
			t.root.Children = append(t.root.Children[:i], t.root.Children[i+1:]...)
		} else {
			t.root.Children[i] = root
			t.numNodes += statsOf(root).Nodes
		}
		return
	}
	if root == nil {
		return
	}
	t.root.addChild(root)
	t.numNodes += statsOf(root).Nodes
}
