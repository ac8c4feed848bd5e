package tctree

import (
	"math"
	"runtime"

	"themecomm/internal/dbnet"
	"themecomm/internal/itemset"
)

// BuildOptions configures the TC-Tree construction.
type BuildOptions struct {
	// Parallelism is the number of workers the build runs on: every
	// first-level subtree (a top-level item and all the patterns it roots) is
	// mined independently of the others, one worker at a time. Zero or
	// negative means GOMAXPROCS.
	Parallelism int
	// MaxDepth, when positive, bounds the length of indexed patterns. Zero
	// means unbounded.
	MaxDepth int
}

// Build constructs the TC-Tree of the database network following Algorithm 4:
// the first level indexes every single item with a non-empty maximal pattern
// truss at α = 0; deeper nodes are generated by joining a node with its right
// siblings, evaluating each candidate pattern inside the intersection of the
// parents' trusses (Proposition 5.3), decomposing the result (Theorem 6.1),
// and pruning empty subtrees (Proposition 5.2).
//
// The first-level subtrees do not depend on one another, so Build mines each
// with expandSubtree — the routine RebuildScoped runs for an update's items —
// on a pool of opts.Parallelism workers. The tree is a function of the network
// alone: two builds, at any parallelism, agree bit for bit.
func Build(nw *dbnet.Network, opts BuildOptions) *Tree {
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = math.MaxInt
	}

	tree := &Tree{root: &Node{Pattern: itemset.New()}}
	if opts.MaxDepth > 0 {
		tree.builtMaxDepth = opts.MaxDepth
	}
	for _, root := range mineSubtrees(nw, nw.Items(), maxDepth, workers) {
		if root != nil {
			tree.root.Children = append(tree.root.Children, root)
			tree.numNodes += statsOf(root).Nodes
		}
	}
	return tree
}
