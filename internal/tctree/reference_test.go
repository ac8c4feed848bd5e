package tctree

import (
	"math"
	"sort"

	"themecomm/internal/core"
	"themecomm/internal/dbnet"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// This file holds the pointer-tree references the byte route is tested
// against: the scoped rebuild as it ran before shards were spliced as bytes,
// and the catalogue as a walk of a subtree.

// referenceScopedRebuild is the scoped rebuild over a decoded previous
// subtree: the expansion of expandSubtree, with every carried-over child
// grafted as the *Node it is in prev, subtree and all. It is what the splice
// must reproduce once encoded.
func referenceScopedRebuild(nw *dbnet.Network, item itemset.Item, scope []itemset.Itemset, prev *Node) (*Node, RebuildStats) {
	var wit []itemset.Itemset
	if prev != nil && prev.Item == item {
		wit = witnessesWith(scope, item)
	}
	if len(wit) == 0 {
		prev = nil
	}
	x := &referenceExpansion{expansion: expansion{nw: nw, maxDepth: math.MaxInt}, scoped: prev != nil}
	pattern := itemset.New(item)
	d, base := truss.DecomposeWithBase(nw.ThemeNetwork(pattern))
	if d.Empty() {
		return nil, x.stats
	}
	x.stats.Recomputed++
	root := grown{node: &Node{Item: item, Pattern: pattern, Decomp: d}, base: base}
	x.expand(root, nil, wit, prev)
	return root.node, x.stats
}

type referenceExpansion struct {
	expansion
	scoped bool
	stats  RebuildStats
}

func (x *referenceExpansion) expand(nf grown, siblings []grown, wit []itemset.Itemset, prev *Node) {
	all := x.candidates(nf, siblings, wit, x.scoped)
	var children []grown
	if all || len(x.cand) > 0 {
		children = x.mine(nf, siblings, all)
	}
	x.stats.Recomputed += len(children)
	var grafts []*Node
	if prev != nil {
		for _, c := range prev.Children {
			if !inScope(wit, c.Item) {
				grafts = append(grafts, c)
				x.stats.Reused += statsOf(c).Nodes
			}
		}
	}
	for _, c := range children {
		for len(grafts) > 0 && grafts[0].Item < c.node.Item {
			nf.node.Children = append(nf.node.Children, grafts[0])
			grafts = grafts[1:]
		}
		nf.node.Children = append(nf.node.Children, c.node)
	}
	nf.node.Children = append(nf.node.Children, grafts...)
	for i, c := range children {
		x.expand(c, children[i+1:], witnessesWith(wit, c.node.Item), prev.child(c.node.Item))
	}
}

// child returns n's child with the given item, or nil when it has none (or n
// is nil).
func (n *Node) child(item itemset.Item) *Node {
	if n == nil {
		return nil
	}
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Item >= item })
	if i < len(n.Children) && n.Children[i].Item == item {
		return n.Children[i]
	}
	return nil
}

// shardCatalogue computes one shard's manifest metadata — the basic
// statistics plus the item bloom — by walking the subtree: the reference for
// the entry the encoder computes while it lays the shard out.
func shardCatalogue(root *Node) (st ShardStats, bloom string) {
	st = ShardStats{Item: root.Item}
	items := make(map[itemset.Item]struct{})
	root.Walk(func(n *Node) {
		st.Nodes++
		l := n.Pattern.Len()
		if l > st.Depth {
			st.Depth = l
		}
		a := n.Decomp.MaxAlpha()
		if a > st.MaxAlpha {
			st.MaxAlpha = a
		}
		items[n.Item] = struct{}{}
	})
	b := newItemBloom(len(items))
	for it := range items {
		b.add(it)
	}
	return st, b.Encode()
}

// treeMaxAlpha is the largest α*_p of any node of the tree: a query with a
// larger α_q retrieves nothing.
func treeMaxAlpha(tree *Tree) float64 {
	maxAlpha := 0.0
	tree.Walk(func(n *Node) { maxAlpha = max(maxAlpha, n.Decomp.MaxAlpha()) })
	return maxAlpha
}

// The pointer tree's lookups and listings below serve only as references
// for the tests; nothing in the serving path reads a Tree.

// Node returns the node representing pattern p, or nil if p is not indexed
// (its maximal pattern truss at α = 0 is empty).
func (t *Tree) Node(p itemset.Itemset) *Node {
	if t.root == nil || p.Len() == 0 {
		return nil
	}
	return t.root.Descendant(p)
}

// Descendant returns the node of pattern p within n's subtree (possibly n
// itself), or nil when p does not extend n's pattern or is not indexed below
// n. Because the TC-Tree is a set-enumeration tree, the path from n to the
// node of p appends the items of p beyond n's pattern in ascending order.
func (n *Node) Descendant(p itemset.Itemset) *Node {
	if n == nil || p.Len() < n.Pattern.Len() {
		return nil
	}
	for i, it := range n.Pattern {
		if p[i] != it {
			return nil
		}
	}
	cur := n
	for _, it := range p[n.Pattern.Len():] {
		var next *Node
		for _, c := range cur.Children {
			if c.Item == it {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// MiningResult converts a QueryByAlpha answer into a core.Result, which makes
// index-based retrieval directly comparable with the output of the mining
// algorithms (the tests' reference).
func (t *Tree) MiningResult(alphaQ float64) *core.Result {
	qr := t.QueryByAlpha(alphaQ)
	res := &core.Result{Alpha: alphaQ, Trusses: make(map[itemset.Key]*truss.Truss, len(qr.Trusses))}
	res.Stats.Algorithm = "TC-Tree"
	res.Stats.Duration = qr.Duration
	for _, tr := range qr.Trusses {
		res.Trusses[tr.Pattern.Key()] = tr
	}
	return res
}

// LoadShard opens the shard rooted at item and materializes it as a pointer
// subtree sharing no state with the index. Serving layers query through
// LoadShardView instead; this is for code that needs *Node.
func (x *ShardedIndex) LoadShard(item itemset.Item) (*Node, error) {
	b, err := x.OpenShard(item)
	if err != nil {
		return nil, err
	}
	return b.Materialize()
}
