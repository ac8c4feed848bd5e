package tctree

import (
	"math"
	"runtime"

	"themecomm/internal/dbnet"
	"themecomm/internal/itemset"
	"themecomm/internal/par"
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

// bounds returns the pool size and pattern-length bound of a build.
func (o BuildOptions) bounds() (workers, maxDepth int) {
	workers, maxDepth = o.Parallelism, o.MaxDepth
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxDepth <= 0 {
		maxDepth = math.MaxInt
	}
	return workers, maxDepth
}

// Build constructs the TC-Tree of the database network following Algorithm 4:
// the first level indexes every single item with a non-empty maximal pattern
// truss at α = 0; deeper nodes are generated by joining a node with its right
// siblings, evaluating each candidate pattern inside the intersection of the
// parents' trusses (Proposition 5.3), decomposing the result (Theorem 6.1),
// and pruning empty subtrees (Proposition 5.2).
//
// The first-level subtrees do not depend on one another, so Build mines each
// on a pool of opts.Parallelism workers (mineShards) and keeps its root. The
// tree is a function of the network alone: two builds, at any parallelism,
// agree bit for bit, and BuildIndex is its encoding.
func Build(nw *dbnet.Network, opts BuildOptions) *Tree {
	workers, maxDepth := opts.bounds()
	items := nw.Items()
	roots := make([]*Node, len(items))
	mineShards(nw, items, maxDepth, workers, Scope{}, nil, func(i int, s splice) error {
		roots[i] = s.root
		return nil
	})
	tree := &Tree{root: &Node{Pattern: itemset.New()}, builtMaxDepth: max(opts.MaxDepth, 0)}
	for _, root := range roots {
		if root != nil {
			tree.root.Children = append(tree.root.Children, root)
			tree.numNodes += statsOf(root).Nodes
		}
	}
	return tree
}

// Index is a TC-Tree as bytes: the TCBIN encoding of every first-level
// subtree, in ascending root item, leaving out the items that index nothing.
// It is what Write persists and what a serving engine holds on the heap.
type Index struct {
	// BuiltMaxDepth is the BuildOptions.MaxDepth bound of the build
	// (0 = unbounded), recorded in the manifest Write writes.
	BuiltMaxDepth int
	// JournalSeq is the journal position of the network the index was built
	// from — its file's stamp — recorded in the manifest Write writes, so a
	// rebuilt index agrees with its network file.
	JournalSeq uint64
	Shards     []*EncodedShard
}

// BuildIndex builds the index of the network as bytes: each first-level
// subtree is mined as Build mines it, encoded on the worker that mined it
// and dropped, so the pointer tree is never held whole. The shards are byte
// for byte those of Build's tree.
func BuildIndex(nw *dbnet.Network, opts BuildOptions) (*Index, error) {
	workers, maxDepth := opts.bounds()
	items := nw.Items()
	shards := make([]*EncodedShard, len(items))
	err := mineShards(nw, items, maxDepth, workers, Scope{}, nil, func(i int, s splice) (err error) {
		if s.root != nil {
			shards[i], _, err = s.encode()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	idx := &Index{BuiltMaxDepth: max(opts.MaxDepth, 0)}
	for _, s := range shards {
		if s != nil {
			idx.Shards = append(idx.Shards, s)
		}
	}
	return idx, nil
}

// NumNodes returns the number of indexed nodes across all shards.
func (x *Index) NumNodes() int {
	n := 0
	for _, s := range x.Shards {
		n += s.Entry.Nodes
	}
	return n
}

// SizeBytes returns the summed size of the shard payloads.
func (x *Index) SizeBytes() int64 {
	var n int64
	for _, s := range x.Shards {
		n += int64(len(s.Data))
	}
	return n
}

// mineShards is the one routine that mines shards: it runs expandSubtree for
// every item on a pool of workers (par.Feed) and hands each splice, with the
// item's index, to step on the worker that mined it — Build keeps the root,
// BuildIndex and RebuildScoped encode it. With prev, an item's previous
// shard scopes its expansion to the delta whose scope is scope. It returns
// the first error of step in item order.
func mineShards(nw *dbnet.Network, items itemset.Itemset, maxDepth, workers int, scope Scope, prev func(itemset.Item) *BinShard, step func(i int, s splice) error) error {
	// The expansions read the network from several goroutines; freeze the
	// lazily built structures first so those reads are safe.
	nw.Freeze()
	errs := make([]error, len(items))
	par.Feed(len(items), workers, func(i int) {
		var old *BinShard
		if prev != nil {
			old = prev(items[i])
		}
		errs[i] = step(i, expandSubtree(nw, items[i], maxDepth, scope, old))
	})
	return firstError(errs)
}
