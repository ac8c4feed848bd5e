package tctree

import (
	"runtime"
	"sync"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// RebuildSubtree re-decomposes the first-level subtree (shard) of one
// top-level item from the current state of the network, without touching any
// other shard: the incremental-maintenance counterpart of Build. It returns
// nil when the item's maximal pattern truss at α = 0 is empty — the shard no
// longer indexes anything and should be dropped.
//
// The result is identical to the corresponding first-level subtree of
// Build(nw, BuildOptions{}): candidate patterns are evaluated inside the
// shard root's truss edges (a superset of the sibling intersection Build
// uses, exact by Proposition 5.3 — the maximal pattern truss is unique, so
// enlarging the candidate subgraph cannot change the decomposition), and
// deeper levels join right siblings within the shard exactly like
// Algorithm 4. Callers rebuilding an index built with a MaxDepth bound must
// re-run Build instead.
//
// The network must be quiescent (and Freeze-d if RebuildSubtree runs
// concurrently with other readers).
func RebuildSubtree(nw *dbnet.Network, item itemset.Item) *Node {
	d1 := truss.Decompose(nw.ThemeNetwork(itemset.New(item)))
	if d1.Empty() {
		return nil
	}
	root := &Node{Item: item, Pattern: itemset.New(item), Decomp: d1}
	base := map[*Node]graph.EdgeSet{root: d1.EdgesAt(0)}

	// Level 2: every network item beyond the shard root is a candidate
	// extension. Items whose own truss is empty die here too — their joined
	// pattern's truss is a subset of theirs (Proposition 5.3), hence empty.
	var queue []*Node
	for _, j := range nw.Items() {
		if j <= item {
			continue
		}
		pc := root.Pattern.Add(j)
		decomp := truss.Decompose(nw.ThemeNetworkWithin(pc, base[root]))
		if decomp.Empty() {
			continue
		}
		nc := &Node{Item: j, Pattern: pc, Decomp: decomp}
		root.addChild(nc)
		base[nc] = decomp.EdgesAt(0)
		queue = append(queue, nc)
	}

	// Deeper levels: breadth-first join with right siblings, as in Build.
	parent := make(map[*Node]*Node, len(queue))
	for _, c := range root.Children {
		parent[c] = root
	}
	for len(queue) > 0 {
		nf := queue[0]
		queue = queue[1:]
		for _, nb := range parent[nf].Children {
			if nb.Item <= nf.Item {
				continue
			}
			inter := base[nf].Intersect(base[nb])
			if inter.Len() == 0 {
				continue
			}
			pc := nf.Pattern.Add(nb.Item)
			decomp := truss.Decompose(nw.ThemeNetworkWithin(pc, inter))
			if decomp.Empty() {
				continue
			}
			nc := &Node{Item: nb.Item, Pattern: pc, Decomp: decomp}
			nf.addChild(nc)
			parent[nc] = nf
			base[nc] = decomp.EdgesAt(0)
			queue = append(queue, nc)
		}
	}
	return root
}

// RebuildSubtrees rebuilds the shards of every given item in parallel,
// returning item → new subtree (nil when the shard decomposed to nothing).
// The network is frozen first so concurrent reads are safe.
func RebuildSubtrees(nw *dbnet.Network, items itemset.Itemset) map[itemset.Item]*Node {
	nw.Freeze()
	out := make(map[itemset.Item]*Node, items.Len())
	if items.Len() == 0 {
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > items.Len() {
		workers = items.Len()
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	jobs := make(chan itemset.Item)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				sub := RebuildSubtree(nw, it)
				mu.Lock()
				out[it] = sub
				mu.Unlock()
			}
		}()
	}
	for _, it := range items {
		jobs <- it
	}
	close(jobs)
	wg.Wait()
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
