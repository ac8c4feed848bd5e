package tctree

import (
	"slices"
	"sync"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// expandSubtree mines the whole first-level subtree (shard) of one top-level
// item from the network: the one routine behind Build, RebuildSubtrees and
// the scoped rebuild of an update, so a shard is the same — bit for bit —
// whichever of them produced it. It returns the shard root, or nil when the
// item's maximal pattern truss at α = 0 is empty. maxDepth bounds the pattern
// length of the nodes (Algorithm 4 without a bound when it is the largest
// int).
//
// Every node below the root is found the same way (expansion.expand): one
// pass over the transactions that contain the node's pattern, on the
// vertices of the node's own truss, yields the support of every one-item
// extension of the pattern on every such vertex; each extension is then
// induced inside the edges Proposition 5.3 confines it to and decomposed
// (Theorem 6.1); empty results prune the whole branch (Proposition 5.2).
//
// With a previous subtree — the shard as it stood before a delta whose
// witness transactions are scope (delta.Scope) — only the patterns some
// witness contains are mined; the rest of prev is carried over (see expand).
// Without one, or when no witness contains the item and the scope therefore
// says nothing about its shard, everything is mined.
//
// The network must be frozen: expandSubtree only reads it and may run
// concurrently with other readers.
func expandSubtree(nw *dbnet.Network, item itemset.Item, maxDepth int, scope []itemset.Itemset, prev *Node) (*Node, RebuildStats) {
	var wit []itemset.Itemset
	if prev != nil && prev.Item == item {
		wit = witnessesWith(scope, item)
	}
	if len(wit) == 0 {
		prev = nil
	}
	x := &expansion{nw: nw, maxDepth: maxDepth, scoped: prev != nil}
	pattern := itemset.New(item)
	d := truss.Decompose(nw.ThemeNetwork(pattern))
	if d.Empty() {
		return nil, x.stats
	}
	x.stats.Recomputed++
	root := grown{node: &Node{Item: item, Pattern: pattern, Decomp: d}, base: baseEdges(d)}
	x.expand(root, nil, wit, prev)
	return root.node, x.stats
}

// RebuildStats counts the nodes of rebuilt shards by where they came from:
// Recomputed nodes were induced and decomposed from the network, Reused ones
// carried over from the previous subtree.
type RebuildStats struct {
	Recomputed int
	Reused     int
}

// expansion is the working state of one expandSubtree call.
type expansion struct {
	nw       *dbnet.Network
	maxDepth int
	// scoped says the expansion mines only inside a delta's scope and takes
	// everything else from the previous subtree.
	scoped bool
	stats  RebuildStats

	// Scratch reused by every expand call of the subtree; none of it is live
	// across the recursion into the children.
	verts []graph.VertexID
	tids  []int32
	occ   []uint64
	cand  []itemset.Item
}

// witnessesWith returns the witnesses that contain item.
func witnessesWith(wit []itemset.Itemset, item itemset.Item) []itemset.Itemset {
	var out []itemset.Itemset
	for _, w := range wit {
		if w.Contains(item) {
			out = append(out, w)
		}
	}
	return out
}

// grown is a materialized node together with the edges of its maximal
// pattern truss at α = 0, ascending — needed only while its subtree grows.
type grown struct {
	node *Node
	base []graph.Edge
}

// signBit flips an item's sign bit so that packed words sort in item order.
const signBit = 1 << 31

// expand materializes the children of nf and, recursively, their subtrees.
// siblings are nf's mined right siblings (ascending item). Below the shard
// root the candidate extensions are the right siblings' items, each evaluated
// inside the intersection of the two parents' trusses (Lines 6-12 of
// Algorithm 4). At the shard root the other top-level trusses are not at
// hand, so every item that follows the root in some transaction is a
// candidate, evaluated inside the root's truss — a superset of that
// intersection, and exact by Proposition 5.3: the maximal pattern truss is
// unique, so a larger candidate subgraph cannot change it.
//
// A scoped expansion narrows the candidates to the extensions some witness
// contains: wit are the witnesses that contain nf's pattern, and prev is the
// node nf's pattern had before the delta (nil when it had none). A child of
// prev whose pattern no witness contains is out of scope: its theme network
// is unchanged, and so is every pattern below it (delta.Scope), so the old
// child is grafted with its whole subtree instead of being induced and
// peeled. The graft is the node a full rebuild would mine even though the
// candidate subgraph around it may have changed, because a decomposition does
// not depend on that subgraph (see truss.peeler). A grafted child is no
// candidate sibling to the mined ones: an extension of a mined child by the
// grafted child's item contains the grafted pattern, so it is out of scope
// itself and arrives with the mined child's own grafts.
func (x *expansion) expand(nf grown, siblings []grown, wit []itemset.Itemset, prev *Node) {
	pattern := nf.node.Pattern
	if pattern.Len() >= x.maxDepth {
		return
	}
	shardRoot := pattern.Len() == 1
	// The candidate items, ascending: every following item at an unscoped
	// shard root (all), else the siblings' items, within the scope.
	all := shardRoot && !x.scoped
	x.cand = x.cand[:0]
	switch {
	case all:
	case !x.scoped:
		for _, s := range siblings {
			x.cand = append(x.cand, s.node.Item)
		}
	default:
		for _, w := range wit {
			k, _ := slices.BinarySearch(w, nf.node.Item)
			x.cand = append(x.cand, w[k+1:]...)
		}
		slices.Sort(x.cand)
		x.cand = slices.Compact(x.cand)
		if !shardRoot {
			n, s := 0, 0
			for _, j := range x.cand {
				for s < len(siblings) && siblings[s].node.Item < j {
					s++
				}
				if s < len(siblings) && siblings[s].node.Item == j {
					x.cand[n] = j
					n++
				}
			}
			x.cand = x.cand[:n]
		}
	}

	var children []grown
	if all || len(x.cand) > 0 {
		children = x.mine(nf, siblings, all)
	}
	x.stats.Recomputed += len(children)

	// The children in item order: the mined ones, and the previous node's
	// children outside the scope — the extensions by an item no witness of
	// the pattern carries, which x.cand is a subset of.
	var grafts []*Node
	if prev != nil {
		for _, c := range prev.Children {
			if !inScope(wit, c.Item) {
				grafts = append(grafts, c)
				x.stats.Reused += statsOf(c).Nodes
			}
		}
	}
	if len(children)+len(grafts) == 0 {
		return
	}
	nf.node.Children = make([]*Node, 0, len(children)+len(grafts))
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

// inScope reports whether some witness contains item.
func inScope(wit []itemset.Itemset, item itemset.Item) bool {
	for _, w := range wit {
		if w.Contains(item) {
			return true
		}
	}
	return false
}

// mine induces and decomposes nf's candidate children — the extensions by
// the items of x.cand, or by every following item when all is set — and
// returns the non-empty ones in ascending item order.
func (x *expansion) mine(nf grown, siblings []grown, all bool) []grown {
	pattern := nf.node.Pattern
	shardRoot := pattern.Len() == 1

	// One pass: occ gets one word (item j, vertex index) for every occurrence
	// of a candidate item j in a transaction that contains the pattern.
	// Sorted, the words of one j are contiguous, and within them the run
	// length of a vertex is the support of pattern ∪ {j} on it.
	x.verts = x.verts[:0]
	for _, e := range nf.base {
		x.verts = append(x.verts, e.U, e.V)
	}
	slices.Sort(x.verts)
	x.verts = slices.Compact(x.verts)
	x.occ = x.occ[:0]
	for i, v := range x.verts {
		db := x.nw.Database(v)
		x.tids = db.TransactionsWith(x.tids[:0], pattern)
		for _, tid := range x.tids {
			tx := db.Transactions()[tid]
			// The pattern's largest item is nf's own; extensions follow it.
			k, _ := slices.BinarySearch(tx, nf.node.Item)
			s := 0
			for _, j := range tx[k+1:] {
				if !all {
					for s < len(x.cand) && x.cand[s] < j {
						s++
					}
					if s == len(x.cand) {
						break
					}
					if x.cand[s] != j {
						continue
					}
				}
				x.occ = append(x.occ, uint64(uint32(j)^signBit)<<32|uint64(i))
			}
		}
	}
	slices.Sort(x.occ)

	var children []grown
	s := 0
	for lo, hi := 0, 0; lo < len(x.occ); lo = hi {
		hi = runEnd(x.occ, lo, 32)
		// A pattern truss needs a triangle: three positive vertices joined
		// by three candidate edges, or the decomposition is empty.
		positive := 0
		for k := lo; k < hi; k = runEnd(x.occ, k, 0) {
			positive++
		}
		if positive < 3 {
			continue
		}
		j := itemset.Item(uint32(x.occ[lo]>>32) ^ signBit)
		within := nf.base
		if !shardRoot {
			for siblings[s].node.Item != j {
				s++
			}
			within = intersectEdges(nf.base, siblings[s].base)
		}
		if len(within) < 3 {
			continue
		}
		tn := x.induce(pattern.Add(j), x.occ[lo:hi], positive, within)
		if len(tn.Edges) < 3 {
			continue
		}
		if d := truss.Decompose(tn); !d.Empty() {
			children = append(children, grown{node: &Node{Item: j, Pattern: tn.Pattern, Decomp: d}, base: baseEdges(d)})
		}
	}
	return children
}

// runEnd returns the end of the run of words that starts at lo and agrees
// with words[lo] above the low shift bits.
func runEnd(words []uint64, lo int, shift uint) int {
	hi := lo + 1
	for hi < len(words) && words[hi]>>shift == words[lo]>>shift {
		hi++
	}
	return hi
}

// induce assembles the theme network of pattern pc inside the candidate
// edges within (ascending). occ holds pc's occurrence words, sorted: the
// vertices that appear — positive of them — are exactly those with
// f_v(pc) > 0, and a vertex's run length is pc's support on it.
func (x *expansion) induce(pc itemset.Itemset, occ []uint64, positive int, within []graph.Edge) *dbnet.ThemeNetwork {
	tn := &dbnet.ThemeNetwork{
		Pattern:  pc,
		Vertices: make([]graph.VertexID, 0, positive),
		Freqs:    make([]float64, 0, positive),
		Edges:    make([]graph.Edge, 0, min(len(within), positive*(positive-1)/2)),
	}
	for lo, hi := 0, 0; lo < len(occ); lo = hi {
		hi = runEnd(occ, lo, 0)
		v := x.verts[uint32(occ[lo])]
		tn.Vertices = append(tn.Vertices, v)
		tn.Freqs = append(tn.Freqs, float64(hi-lo)/float64(x.nw.Database(v).Len()))
	}
	// Keep the edges of within that join two positive vertices. Within is
	// sorted by (U, V), so the edges leaving u upwards are one run, found by
	// binary search: the cost follows the positive vertices, not |within|.
	for _, u := range tn.Vertices {
		k, _ := slices.BinarySearchFunc(within, graph.Edge{U: u, V: u}, graph.CompareEdges)
		for ; k < len(within) && within[k].U == u; k++ {
			if _, ok := slices.BinarySearch(tn.Vertices, within[k].V); ok {
				tn.Edges = append(tn.Edges, within[k])
			}
		}
	}
	return tn
}

// baseEdges returns the edges of C*_p(0) stored in the decomposition,
// ascending.
func baseEdges(d *truss.Decomposition) []graph.Edge {
	out := make([]graph.Edge, 0, d.NumEdges())
	for _, l := range d.Levels {
		out = append(out, l.Removed...)
	}
	slices.SortFunc(out, graph.CompareEdges)
	return out
}

// intersectEdges returns the edges present in both ascending lists.
func intersectEdges(a, b []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, min(len(a), len(b)))
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := graph.CompareEdges(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// expandSubtrees runs expandSubtree for every item on a pool of workers and
// returns the shard roots aligned with items. prev, when non-nil, supplies an
// item's previous subtree (nil to mine the shard in full); it is called once
// per item, from the workers.
func expandSubtrees(nw *dbnet.Network, items itemset.Itemset, maxDepth, workers int, scope []itemset.Itemset, prev func(itemset.Item) *Node) ([]*Node, RebuildStats) {
	// The expansions read the network from several goroutines; freeze the
	// lazily built structures first so those reads are safe.
	nw.Freeze()
	roots := make([]*Node, len(items))
	stats := make([]RebuildStats, len(items))
	parallelDo(len(items), workers, func(i int) {
		var old *Node
		if prev != nil {
			old = prev(items[i])
		}
		roots[i], stats[i] = expandSubtree(nw, items[i], maxDepth, scope, old)
	})
	var total RebuildStats
	for _, st := range stats {
		total.Recomputed += st.Recomputed
		total.Reused += st.Reused
	}
	return roots, total
}

// parallelDo calls do(i) for every i in [0, n) on a pool of at most workers
// goroutines and returns when all calls have. It is the pool shards are
// mined, encoded and written on: the calls are independent, and what they
// produce is placed by index, so the result never depends on the schedule.
func parallelDo(n, workers int, do func(i int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
