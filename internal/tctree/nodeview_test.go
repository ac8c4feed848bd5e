package tctree

import (
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// NodeView runs the traversals of a BinShard over a pointer subtree: the
// reference the read kernel's tests hold the in-place traversal against.
// Nothing serves queries from it.
type NodeView struct {
	root *Node
}

// NewNodeView wraps a shard subtree.
func NewNodeView(root *Node) *NodeView { return &NodeView{root: root} }

// nodeScratch is what a NodeView traversal reuses from node to node: the
// live levels' u32 position pairs and their edge lists.
type nodeScratch struct {
	pairs []byte
	edges [][]graph.Edge
}

// retrieveNode hands node n to the read kernel as a BinShard hands over its
// record: the vertex run is the decomposition's, the levels live at α_q are
// numbered by it, all in one AppendPairs call as the encoder numbers a node,
// and the node is whole when every level is live and the decomposition counts
// one component.
func retrieveNode(res *ShardAnswer, sc *readScratch, ns *nodeScratch, n *Node, alphaQ float64, floor *truss.Floor) {
	run := n.Decomp.Vertices
	live := n.Decomp.LiveLevels(alphaQ)
	ns.edges = ns.edges[:0]
	for _, l := range live {
		ns.edges = append(ns.edges, l.Removed)
	}
	buf, err := truss.AppendPairs[uint32](ns.pairs[:0], run, ns.edges...)
	if err != nil {
		panic(err)
	}
	ns.pairs = buf
	levels := sc.levels[:0]
	for _, l := range live {
		size := 8 * len(l.Removed)
		levels = append(levels, truss.PairLevel{Alpha: l.Alpha, Pairs: buf[:size:size]})
		buf = buf[size:]
	}
	sc.levels = levels
	whole := len(live) == len(n.Decomp.Levels) && n.Decomp.Components == 1
	res.retrieve(sc, n.Pattern, run, levels, whole, true, floor)
}

func (v *NodeView) RootItem() itemset.Item { return v.root.Item }

func (v *NodeView) SizeBytes() int64 { return 0 }

func (v *NodeView) Evicted() {}

func (v *NodeView) QuerySub(q itemset.Itemset, alphaQ float64, floor *truss.Floor) ShardAnswer {
	var res ShardAnswer
	res.Visited++
	if bound := v.root.Decomp.MaxAlpha(); !truss.LevelLive(bound, alphaQ) || floor.Prunes(bound) {
		return res
	}
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	var ns nodeScratch
	retrieveNode(&res, sc, &ns, v.root, alphaQ, floor)
	queue := []*Node{v.root}
	for len(queue) > 0 {
		nf := queue[0]
		queue = queue[1:]
		for _, nc := range nf.Children {
			if q != nil && !q.Contains(nc.Item) {
				continue
			}
			res.Visited++
			if bound := nc.Decomp.MaxAlpha(); !truss.LevelLive(bound, alphaQ) || floor.Prunes(bound) {
				continue
			}
			retrieveNode(&res, sc, &ns, nc, alphaQ, floor)
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
	var ns nodeScratch
	if need == q.Len() {
		retrieveNode(&res, sc, &ns, v.root, alphaQ, nil)
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
				retrieveNode(&res, sc, &ns, c, alphaQ, nil)
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
