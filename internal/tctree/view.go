package tctree

import (
	"slices"
	"sync"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// ShardView is the engine-facing read surface of one loaded shard. Two
// implementations exist: BinShard traverses the TCBIN layout in place over a
// memory-mapped file — every shard opened from disk — and NodeView wraps a
// pointer subtree on the heap: trees built in-process, shards rebuilt by a
// delta and not yet checkpointed, and the reference the TCBIN parity tests
// compare against. Both run the same traversals in the same order and hand
// every retrieved node's live removal levels to the same read kernel
// (truss.Splitter), so query answers — communities, their order, and the
// retrieved/visited counters — are identical.
//
// A traversal answers with theme communities as flat records, never with
// trusses: a retrieved node costs one pass over its live edges, two
// allocations (its pattern on a BinShard, the vertex lists of its
// communities) and nothing per edge, the traversal one more for the records
// themselves, and the records keep no reference to the shard's bytes, so
// they outlive its eviction.
type ShardView interface {
	// RootItem returns the shard's root item.
	RootItem() itemset.Item
	// QuerySub runs Algorithm 5 restricted to the shard (sub-pattern
	// semantics: every indexed p ⊆ q): breadth-first traversal, skipping
	// children whose item is not in q and pruning subtrees whose truss is
	// empty at α_q (Proposition 5.2). The caller guarantees the root item
	// is in q by shard selection.
	QuerySub(q itemset.Itemset, alphaQ float64) ShardAnswer
	// QueryContaining answers the containment workload: the communities of
	// every indexed pattern p ⊇ q at α_q. The traversal descends only into
	// children that can still reach a superset of q (set-enumeration order
	// makes skipped-over query items unreachable) and prunes empty-truss
	// subtrees exactly like QuerySub.
	QueryContaining(q itemset.Itemset, alphaQ float64) ShardAnswer
	// WalkPatterns visits every indexed pattern of the shard in DFS
	// pre-order (the shard root first, children in ascending item order).
	WalkPatterns(visit func(p itemset.Itemset))
	// SizeBytes is what the shard charges a residency budget while open: the
	// mapped file size for a BinShard, 0 for a NodeView (heap shards are
	// never evicted, so they are outside every budget).
	SizeBytes() int64
	// Evicted tells the view that its holder dropped it to make room, so it
	// can stop charging memory before the garbage collector gets to it.
	// Traversals already running on the view must keep working.
	Evicted()
	// Materialize returns the shard as a pointer subtree — what a scoped
	// rebuild carries the unchanged part of the shard over from. The caller
	// must not modify it: a NodeView returns the subtree it serves, a
	// BinShard decodes the bytes it has open.
	Materialize() (*Node, error)
}

// ShardAnswer is one shard's contribution to a query: the theme communities
// of the retrieved nodes — nodes in traversal order, each node's communities
// by smallest vertex — with the number of nodes retrieved (non-empty at α_q
// and matching the query) and the number inspected (including nodes whose
// truss was empty at α_q).
type ShardAnswer struct {
	Communities []truss.Community
	Retrieved   int
	Visited     int
}

// retrieve records one retrieved node: the read kernel splits its live levels
// into communities, gathered in the scratch until finish. It is the one
// place either view turns levels into records.
func (res *ShardAnswer) retrieve(sc *readScratch, pattern itemset.Itemset, live []truss.Level) {
	sc.found = sc.split.Split(pattern, live, sc.found)
	res.Retrieved++
}

// finish moves the gathered communities into the answer — one allocation of
// the exact size, where growing the answer record by record would allocate
// about twice that — and leaves the scratch holding no pointer into it.
func (res *ShardAnswer) finish(sc *readScratch) {
	if len(sc.found) == 0 {
		return
	}
	res.Communities = slices.Clone(sc.found)
	clear(sc.found)
	sc.found = sc.found[:0]
}

// readScratch is what one shard traversal borrows for its duration: the read
// kernel's buffers, the communities found so far, and the buffers a BinShard
// decodes a node's live levels into before handing them over.
type readScratch struct {
	split  truss.Splitter
	found  []truss.Community
	levels []truss.Level
	edges  []graph.Edge
}

// readScratchPool recycles scratch between traversals: they run on the
// engine's worker pool, a few at a time, thousands per second.
var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// NodeView adapts a *Node subtree to the ShardView interface.
type NodeView struct {
	root *Node
}

// NewNodeView wraps a shard subtree.
func NewNodeView(root *Node) *NodeView { return &NodeView{root: root} }

func (v *NodeView) RootItem() itemset.Item { return v.root.Item }

func (v *NodeView) SizeBytes() int64 { return 0 }

func (v *NodeView) Evicted() {}

func (v *NodeView) Materialize() (*Node, error) { return v.root, nil }

func (v *NodeView) QuerySub(q itemset.Itemset, alphaQ float64) ShardAnswer {
	var res ShardAnswer
	res.Visited++
	if !truss.LevelLive(v.root.Decomp.MaxAlpha(), alphaQ) {
		return res
	}
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	res.retrieve(sc, v.root.Pattern, v.root.Decomp.LiveLevels(alphaQ))
	queue := []*Node{v.root}
	for len(queue) > 0 {
		nf := queue[0]
		queue = queue[1:]
		for _, nc := range nf.Children {
			if !q.Contains(nc.Item) {
				continue
			}
			res.Visited++
			if !truss.LevelLive(nc.Decomp.MaxAlpha(), alphaQ) {
				continue
			}
			res.retrieve(sc, nc.Pattern, nc.Decomp.LiveLevels(alphaQ))
			queue = append(queue, nc)
		}
	}
	res.finish(sc)
	return res
}

func (v *NodeView) QueryContaining(q itemset.Itemset, alphaQ float64) ShardAnswer {
	var res ShardAnswer
	// need indexes the first item of q not yet on the path. Path items
	// ascend, so the covered part of q is always a prefix: descending into
	// a child with item greater than q[need] would make q[need]
	// unreachable below, and such children are pruned.
	need := 0
	if need < q.Len() && q[need] == v.root.Item {
		need++
	}
	res.Visited++
	if !truss.LevelLive(v.root.Decomp.MaxAlpha(), alphaQ) {
		return res
	}
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	if need == q.Len() {
		res.retrieve(sc, v.root.Pattern, v.root.Decomp.LiveLevels(alphaQ))
	}
	type frame struct {
		n    *Node
		need int
	}
	queue := []frame{{v.root, need}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, c := range f.n.Children {
			need := f.need
			if need < q.Len() {
				if c.Item > q[need] {
					continue
				}
				if c.Item == q[need] {
					need++
				}
			}
			res.Visited++
			if !truss.LevelLive(c.Decomp.MaxAlpha(), alphaQ) {
				continue
			}
			if need == q.Len() {
				res.retrieve(sc, c.Pattern, c.Decomp.LiveLevels(alphaQ))
			}
			queue = append(queue, frame{c, need})
		}
	}
	res.finish(sc)
	return res
}

func (v *NodeView) WalkPatterns(visit func(p itemset.Itemset)) {
	v.root.Walk(func(n *Node) { visit(n.Pattern) })
}
