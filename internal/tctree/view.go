package tctree

import (
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// ShardView is the engine-facing read surface of one loaded shard. Two
// implementations exist: BinShard traverses the TCBIN layout in place over a
// memory-mapped file — every shard opened from disk — and NodeView wraps a
// pointer subtree on the heap: trees built in-process, shards rebuilt by a
// delta and not yet checkpointed, and the reference the TCBIN parity tests
// compare against. Both run the same traversals in the same order, so query
// answers — including visited-node counters — are byte-identical.
type ShardView interface {
	// RootItem returns the shard's root item.
	RootItem() itemset.Item
	// QuerySub runs Algorithm 5 restricted to the shard (sub-pattern
	// semantics: every indexed p ⊆ q): breadth-first traversal, skipping
	// children whose item is not in q and pruning subtrees whose truss is
	// empty at α_q (Proposition 5.2). The caller guarantees the root item
	// is in q by shard selection.
	QuerySub(q itemset.Itemset, alphaQ float64) ShardAnswer
	// QueryContaining answers the containment workload: the trusses of
	// every indexed pattern p ⊇ q, reconstructed at α_q. The traversal
	// descends only into children that can still reach a superset of q
	// (set-enumeration order makes skipped-over query items unreachable)
	// and prunes empty-truss subtrees exactly like QuerySub.
	QueryContaining(q itemset.Itemset, alphaQ float64) ShardAnswer
	// RemovalAlphas returns pattern p's removal thresholds by edge key —
	// the α at which each edge of C*_p(0) leaves the truss — or false when
	// p is not indexed in the shard. Top-k ranking derives community
	// cohesion from it.
	RemovalAlphas(p itemset.Itemset) (map[uint64]float64, bool)
	// WalkPatterns visits every indexed pattern of the shard in DFS
	// pre-order (the shard root first, children in ascending item order).
	WalkPatterns(visit func(p itemset.Itemset))
	// SizeBytes is what the shard charges a residency budget while open: the
	// mapped file size for a BinShard, 0 for a NodeView (heap shards are
	// never evicted, so they are outside every budget).
	SizeBytes() int64
}

// ShardAnswer is one shard's contribution to a query: the non-empty
// reconstructed trusses in traversal order, and the number of shard nodes
// inspected (including nodes whose truss was empty at α_q).
type ShardAnswer struct {
	Trusses []*truss.Truss
	Visited int
}

// NodeView adapts a *Node subtree to the ShardView interface.
type NodeView struct {
	root *Node
}

// NewNodeView wraps a shard subtree.
func NewNodeView(root *Node) *NodeView { return &NodeView{root: root} }

func (v *NodeView) RootItem() itemset.Item { return v.root.Item }

func (v *NodeView) SizeBytes() int64 { return 0 }

func (v *NodeView) QuerySub(q itemset.Itemset, alphaQ float64) ShardAnswer {
	var res ShardAnswer
	res.Visited++
	if !truss.LevelLive(v.root.Decomp.MaxAlpha(), alphaQ) {
		return res
	}
	res.Trusses = append(res.Trusses, v.root.Decomp.TrussAt(alphaQ))
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
			res.Trusses = append(res.Trusses, nc.Decomp.TrussAt(alphaQ))
			queue = append(queue, nc)
		}
	}
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
	if need == q.Len() {
		res.Trusses = append(res.Trusses, v.root.Decomp.TrussAt(alphaQ))
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
				res.Trusses = append(res.Trusses, c.Decomp.TrussAt(alphaQ))
			}
			queue = append(queue, frame{c, need})
		}
	}
	return res
}

func (v *NodeView) RemovalAlphas(p itemset.Itemset) (map[uint64]float64, bool) {
	n := v.root.Descendant(p)
	if n == nil {
		return nil, false
	}
	out := make(map[uint64]float64, n.Decomp.NumEdges())
	for _, l := range n.Decomp.Levels {
		for _, e := range l.Removed {
			out[e.Key()] = l.Alpha
		}
	}
	return out, true
}

func (v *NodeView) WalkPatterns(visit func(p itemset.Itemset)) {
	v.root.Walk(func(n *Node) { visit(n.Pattern) })
}
