// Package tctree implements the Theme Community Tree of Section 6 of the
// paper: a set-enumeration-tree index over the decomposed maximal pattern
// trusses of every qualified pattern, supporting fast query answering for any
// query pattern q and cohesion threshold α_q without re-mining.
package tctree

import (
	"fmt"
	"sort"

	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// Node is one node of the TC-Tree. Every node represents a pattern: the union
// of the items stored on the path from the root to the node. The node stores
// the decomposed maximal pattern truss L_p of its pattern; nodes whose
// decomposition would be empty are never materialized (Section 6.2).
type Node struct {
	// Item is the item appended to the parent's pattern to form this node's
	// pattern (s_{n_i} in the paper). The root stores no item.
	Item itemset.Item
	// Pattern is the full pattern represented by the node.
	Pattern itemset.Itemset
	// Decomp is the decomposed maximal pattern truss L_p of the pattern.
	// It is nil only on the root.
	Decomp *truss.Decomposition
	// Children are the child nodes, ordered by ascending item.
	Children []*Node
}

// addChild inserts c keeping children ordered by item.
func (n *Node) addChild(c *Node) {
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Item >= c.Item })
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// Tree is the Theme Community Tree: an index over every maximal pattern truss
// of a database network, rooted at the empty pattern.
type Tree struct {
	root     *Node
	numNodes int // number of non-root nodes, i.e. indexed maximal pattern trusses
	// builtMaxDepth is the BuildOptions.MaxDepth bound the tree was built
	// with (0 = unbounded). Incremental maintenance refuses depth-bounded
	// trees: RebuildSubtrees re-decomposes without a bound, which would make
	// rebuilt shards deeper than untouched ones.
	builtMaxDepth int
}

// Root returns the root node (pattern ∅). It is never nil on a built tree.
func (t *Tree) Root() *Node { return t.root }

// NumNodes returns the number of indexed nodes, which equals the number of
// maximal pattern trusses of the database network (Table 3, "#Nodes").
func (t *Tree) NumNodes() int { return t.numNodes }

// Depth returns the maximum pattern length indexed by the tree.
func (t *Tree) Depth() int {
	depth := 0
	t.Walk(func(n *Node) {
		if n.Pattern.Len() > depth {
			depth = n.Pattern.Len()
		}
	})
	return depth
}

// ShardStats summarises one first-level subtree (shard): its root item, node
// count, longest indexed pattern and α* bound. These are the statistics the
// sharded manifest persists per shard and the serving layer's planner
// consults before paying for a traversal or a disk load.
type ShardStats struct {
	// Item is the shard's root item; every pattern indexed in the shard
	// contains it.
	Item itemset.Item
	// Nodes is the number of nodes of the subtree.
	Nodes int
	// Depth is the longest pattern indexed in the subtree.
	Depth int
	// MaxAlpha is the shard's α* bound: C*_p(α) = ∅ for every indexed p and
	// every α ≥ MaxAlpha, so a query with α_q ≥ MaxAlpha retrieves nothing
	// from the shard.
	MaxAlpha float64
}

// statsOf computes the shard statistics of the subtree rooted at root.
func statsOf(root *Node) ShardStats {
	s := ShardStats{Item: root.Item}
	root.Walk(func(n *Node) {
		s.Nodes++
		if l := n.Pattern.Len(); l > s.Depth {
			s.Depth = l
		}
		if a := n.Decomp.MaxAlpha(); a > s.MaxAlpha {
			s.MaxAlpha = a
		}
	})
	return s
}

// ShardStats returns the per-shard statistics of the tree in first-level
// child order (ascending root item), aligned with Root().Children.
func (t *Tree) ShardStats() []ShardStats {
	if t == nil || t.root == nil {
		return nil
	}
	out := make([]ShardStats, 0, len(t.root.Children))
	for _, c := range t.root.Children {
		out = append(out, statsOf(c))
	}
	return out
}

// Walk visits every non-root node of the tree in depth-first order.
func (t *Tree) Walk(visit func(*Node)) {
	if t == nil || t.root == nil {
		return
	}
	var dfs func(*Node)
	dfs = func(n *Node) {
		for _, c := range n.Children {
			visit(c)
			dfs(c)
		}
	}
	dfs(t.root)
}

// Walk visits n and every node of its subtree in depth-first order. It is the
// subtree counterpart of Tree.Walk, used to traverse a single shard.
func (n *Node) Walk(visit func(*Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Patterns returns every indexed pattern in depth-first order.
func (t *Tree) Patterns() []itemset.Itemset {
	var out []itemset.Itemset
	t.Walk(func(n *Node) { out = append(out, n.Pattern) })
	return out
}

// Validate checks the structural invariants of the tree: children are ordered
// by item, each child's pattern extends its parent's pattern by exactly its
// item, and every stored decomposition is itself valid.
func (t *Tree) Validate() error {
	if t.root == nil {
		return fmt.Errorf("tctree: missing root")
	}
	var check func(n *Node) error
	check = func(n *Node) error {
		for i, c := range n.Children {
			if i > 0 && n.Children[i-1].Item >= c.Item {
				return fmt.Errorf("tctree: children of %v not ordered by item", n.Pattern)
			}
			wantPattern := n.Pattern.Add(c.Item)
			if !c.Pattern.Equal(wantPattern) {
				return fmt.Errorf("tctree: node pattern %v does not extend parent %v with item %d",
					c.Pattern, n.Pattern, c.Item)
			}
			if c.Decomp.Empty() {
				return fmt.Errorf("tctree: node %v has an empty decomposition", c.Pattern)
			}
			if err := c.Decomp.Validate(); err != nil {
				return fmt.Errorf("tctree: node %v: %w", c.Pattern, err)
			}
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(t.root)
}
