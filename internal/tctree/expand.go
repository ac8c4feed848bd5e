package tctree

import (
	"math"
	"slices"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// expandSubtree mines the whole first-level subtree (shard) of one top-level
// item from the network, on the pool of mineShards — behind Build,
// BuildIndex, RebuildSubtrees and the scoped rebuild of an update — so a
// shard is the same, bit for bit, whichever of them produced it. The splice it returns has a nil root when
// the item's maximal pattern truss at α = 0 is empty. maxDepth bounds the
// pattern length of the nodes (Algorithm 4 without a bound when it is the
// largest int).
//
// Every node below the root is found the same way (expansion.expand): one
// pass over the transactions that contain the node's pattern, on the
// vertices of the node's own truss, yields the support of every one-item
// extension of the pattern on every such vertex; each extension is then
// induced inside the edges Proposition 5.3 confines it to and decomposed
// (Theorem 6.1); empty results prune the whole branch (Proposition 5.2).
//
// With a previous shard — the shard as it stood before a delta whose scope
// is scope — only the patterns some witness contains are mined, and only
// inside the region (BinShard.region): the delta's seeds for the item and
// every community of the previous root that holds one. The root's theme
// network is induced on the region alone and every node below it inside the
// region's part of its parents' trusses; once the subtree is grown, each
// mined node takes the levels its previous version holds outside the region
// as they are (carryAll). The rest of prev is carried over whole (see
// adopt). Without a previous shard, or when no witness contains the item
// and the scope therefore says nothing about its shard, everything is mined.
//
// The network must be frozen: expandSubtree only reads it and may run
// concurrently with other readers.
func expandSubtree(nw *dbnet.Network, item itemset.Item, maxDepth int, scope Scope, prev *BinShard) splice {
	var wit []itemset.Itemset
	if prev != nil && prev.RootItem() == item && scope.Seeds != nil {
		wit = witnessesWith(scope.Witnesses, item)
	}
	if len(wit) == 0 {
		prev = nil
	}
	x := &expansion{nw: nw, maxDepth: maxDepth, prev: prev}
	pattern := itemset.New(item)
	var tn *dbnet.ThemeNetwork
	if prev != nil {
		region := prev.region(scope.Seeds(item))
		x.inRegion = graph.NumberRun(region)
		defer x.inRegion.Release()
		tn = nw.ThemeNetworkAmong(pattern, region)
	} else {
		tn = nw.ThemeNetwork(pattern)
	}
	root := x.grow(item, tn)
	at := uint32(noNode)
	if prev != nil {
		at = 0
	}
	if root.node.Decomp.Empty() && (prev == nil || !x.outside(0)) {
		return splice{stats: x.stats}
	}
	x.stats.Recomputed++
	x.expand(root, nil, wit, at)
	if at != noNode {
		x.carryAll(root.node, at)
	}
	return splice{root: root.node, prev: prev, grafts: x.grafts, stats: x.stats}
}

// splice is a shard as an expansion leaves it: what it cost (stats, all but
// Reused), a pointer tree under root, and references to the nodes of the
// previous shard carried over with everything below them: grafts[n] lists
// the children of the mined node n that are nodes of prev, by index,
// ascending by item. A full expansion has neither prev nor grafts. encode
// makes one shard of both.
type splice struct {
	root   *Node
	prev   *BinShard
	grafts map[*Node][]uint32
	stats  RebuildStats
}

// RebuildStats counts what rebuilding shards cost. Recomputed nodes were
// mined from the network, Reused ones carried over from the previous shard
// with their whole subtree. Peeled edges are the edges of the theme networks
// handed to the peeler; Carried edges were copied into mined nodes from the
// levels their previous versions hold outside a scoped rebuild's region.
type RebuildStats struct {
	Recomputed int
	Reused     int
	Peeled     int
	Carried    int
}

// add adds o's counts to s.
func (s *RebuildStats) add(o RebuildStats) {
	s.Recomputed += o.Recomputed
	s.Reused += o.Reused
	s.Peeled += o.Peeled
	s.Carried += o.Carried
}

// expansion is the working state of one expandSubtree call.
type expansion struct {
	nw       *dbnet.Network
	maxDepth int
	// prev, when non-nil, makes the expansion scoped: it mines only inside a
	// delta's scope and region and takes everything else from prev (grafts,
	// see splice, and carry). inRegion numbers the region.
	prev     *BinShard
	inRegion *graph.Numbering
	grafts   map[*Node][]uint32
	stats    RebuildStats

	// Scratch reused by every expand call of the subtree; none of it is live
	// across the recursion into the children.
	tids []int32
	occ  []uint64
	cand []itemset.Item
	// The parent's base in its own numbering (mine): the base edges leaving
	// local vertex i upwards are base[ustart[i]:ustart[i+1]], and bv[k] is
	// the local V of base[k]. shared marks the base edges a sibling's base
	// holds too, on marks a candidate's positive vertices, local lists them.
	ustart, bv []int32
	shared     []bool
	on         []bool
	local      []int32
	// prun is the vertex run of the previous node carry reads, and forest
	// its union-find over that run's positions.
	prun   []graph.VertexID
	forest []uint32
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
// pattern truss at α = 0, ascending (truss.DecomposeWithBase) — needed only
// while its subtree grows, so no stored Node holds them. In a scoped
// expansion both are the parts inside the region until carryAll completes
// the decomposition.
type grown struct {
	node *Node
	base []graph.Edge
}

// grow decomposes tn, the theme network of the node for item.
func (x *expansion) grow(item itemset.Item, tn *dbnet.ThemeNetwork) grown {
	x.stats.Peeled += len(tn.Edges)
	d, base := truss.DecomposeWithBase(tn)
	return grown{node: &Node{Item: item, Pattern: tn.Pattern, Decomp: d}, base: base}
}

// signBit flips an item's sign bit so that packed words sort in item order.
const signBit = 1 << 31

// noNode, where an index into the previous shard is expected, says the
// pattern had no node there; a shard holds fewer nodes than that.
const noNode = math.MaxUint32

// expand materializes the children of nf and, recursively, their subtrees.
// siblings are nf's right siblings (ascending item). Below the shard root
// the candidate extensions are the right siblings' items, each evaluated
// inside the intersection of the two parents' trusses (Lines 6-12 of
// Algorithm 4). At the shard root the other top-level trusses are not at
// hand, so every item that follows the root in some transaction is a
// candidate, evaluated inside the root's truss — a superset of that
// intersection, and exact by Proposition 5.3: the maximal pattern truss is
// unique, so a larger candidate subgraph cannot change it.
//
// A scoped expansion narrows the candidates to the extensions some witness
// contains — wit are the witnesses that contain nf's pattern — mines them
// inside the region, and completes them with the children of at, the node
// nf's pattern had in the previous shard (adopt; noNode when it had none).
func (x *expansion) expand(nf grown, siblings []grown, wit []itemset.Itemset, at uint32) {
	if nf.node.Pattern.Len() >= x.maxDepth {
		return
	}
	all := x.candidates(nf, siblings, wit, x.prev != nil)
	var children []grown
	if all || len(x.cand) > 0 {
		children = x.mine(nf, siblings, all)
	}
	if at != noNode {
		children = x.adopt(nf, children, wit, at)
	}
	x.stats.Recomputed += len(children)
	if len(children) > 0 {
		nf.node.Children = make([]*Node, len(children))
		for i, c := range children {
			nf.node.Children[i] = c.node
		}
	}
	for i, c := range children {
		was := uint32(noNode)
		if at != noNode {
			was = x.prev.childWith(at, c.node.Item)
		}
		x.expand(c, children[i+1:], witnessesWith(wit, c.node.Item), was)
	}
}

// adopt completes the children a scoped expansion mined under nf (ascending
// item), whose pattern had node at in the previous shard, with that node's
// children, and returns them in ascending item order.
//
// A previous child whose pattern no witness contains is out of scope: its
// theme network is unchanged, and so is every pattern below it
// (delta.Scope), so the old child is grafted with its whole subtree instead
// of being induced and peeled — by reference: only its item is read. The
// graft is the node a full rebuild would mine even though the candidate
// subgraph around it may have changed, because a decomposition does not
// depend on that subgraph (see truss.peeler). A grafted child is no
// candidate sibling to the mined ones: an extension of a mined child by the
// grafted child's item contains the grafted pattern, so it is out of scope
// itself and arrives with the mined child's own grafts.
//
// Every child in scope takes the levels its previous version holds outside
// the region (carryAll) — whether or not it was mined inside it: a pattern
// whose communities all lie outside the region is a node still, mined
// nowhere, and its children are adopted the same way.
func (x *expansion) adopt(nf grown, mined []grown, wit []itemset.Itemset, at uint32) []grown {
	var children []grown
	var grafts []uint32
	cs, cc := x.prev.run(at, binNodeChildStart)
	for c := cs; c < cs+cc; c++ {
		ci := x.prev.childAt(c)
		item := x.prev.itemOf(ci)
		for len(mined) > 0 && mined[0].node.Item < item {
			children, mined = append(children, mined[0]), mined[1:]
		}
		if !inScope(wit, item) {
			grafts = append(grafts, ci)
			continue
		}
		if len(mined) > 0 && mined[0].node.Item == item {
			children, mined = append(children, mined[0]), mined[1:]
		} else if x.outside(ci) {
			pattern := nf.node.Pattern.Add(item)
			children = append(children, grown{node: &Node{Item: item, Pattern: pattern, Decomp: &truss.Decomposition{Pattern: pattern.Clone()}}})
		}
	}
	children = append(children, mined...)
	if len(grafts) > 0 {
		if x.grafts == nil {
			x.grafts = make(map[*Node][]uint32)
		}
		x.grafts[nf.node] = grafts
	}
	return children
}

// candidates leaves in x.cand the items nf's pattern may be extended by,
// ascending — the siblings' items, within the witnesses when scoped — or
// reports all: an unscoped shard root takes every item that follows it.
func (x *expansion) candidates(nf grown, siblings []grown, wit []itemset.Itemset, scoped bool) (all bool) {
	shardRoot := nf.node.Pattern.Len() == 1
	x.cand = x.cand[:0]
	switch {
	case !scoped && shardRoot:
		return true
	case !scoped:
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
	return false
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
//
// Everything runs in nf's numbering: local vertex i is the i-th vertex of
// nf's C*_p(0), the run its decomposition carries. The base edges are
// numbered once (numberBase), and a candidate's theme network is then
// induced by position alone.
func (x *expansion) mine(nf grown, siblings []grown, all bool) []grown {
	pattern := nf.node.Pattern
	shardRoot := pattern.Len() == 1
	verts := nf.node.Decomp.Vertices

	// One pass: occ gets one word (item j, local vertex) for every
	// occurrence of a candidate item j in a transaction that contains the
	// pattern. Sorted, the words of one j are contiguous, and within them
	// the run length of a vertex is the support of pattern ∪ {j} on it.
	x.occ = x.occ[:0]
	for i, v := range verts {
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
	if len(x.occ) == 0 {
		return nil
	}
	slices.Sort(x.occ)
	x.numberBase(verts, nf.base)

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
		// The candidate edges: nf's base, or below the shard root the part
		// of it the sibling's base holds too (Proposition 5.3).
		within, shared := len(nf.base), []bool(nil)
		if !shardRoot {
			for siblings[s].node.Item != j {
				s++
			}
			within, shared = x.markShared(nf.base, siblings[s].base), x.shared
		}
		if within < 3 {
			continue
		}
		tn := x.induce(pattern.Add(j), nf, x.occ[lo:hi], positive, within, shared)
		if len(tn.Edges) < 3 {
			continue
		}
		if c := x.grow(j, tn); !c.node.Decomp.Empty() {
			children = append(children, c)
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

// numberBase numbers base, the edges of the C*_p(0) whose vertex run is
// verts, by that run: x.ustart gets the start of every local vertex's run of
// upward edges and x.bv every edge's local V, and x.on one clear flag per
// local vertex. Base ascends by (U, V) and its endpoints are the run, so a
// lookup per endpoint is all it takes.
func (x *expansion) numberBase(verts []graph.VertexID, base []graph.Edge) {
	num := graph.NumberRun(verts)
	defer num.Release()
	n := len(verts)
	x.ustart = slices.Grow(x.ustart[:0], n+1)[:n+1]
	clear(x.ustart)
	x.bv = slices.Grow(x.bv[:0], len(base))[:len(base)]
	for k, e := range base {
		u, _ := num.Index(e.U)
		v, _ := num.Index(e.V)
		x.ustart[u+1]++
		x.bv[k] = int32(v)
	}
	for i := 0; i < n; i++ {
		x.ustart[i+1] += x.ustart[i]
	}
	x.on = slices.Grow(x.on[:0], n)[:n]
	clear(x.on)
}

// markShared leaves in x.shared which edges of base (ascending) the
// ascending list other holds too, and returns how many do: one merge.
func (x *expansion) markShared(base, other []graph.Edge) int {
	x.shared = slices.Grow(x.shared[:0], len(base))[:len(base)]
	clear(x.shared)
	n := 0
	for i, j := 0, 0; i < len(base) && j < len(other); {
		switch c := graph.CompareEdges(base[i], other[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			x.shared[i] = true
			n++
			i++
			j++
		}
	}
	return n
}

// induce assembles the theme network of pattern pc, an extension of nf's,
// inside the candidate edges: the edges of nf's base (numbered by
// numberBase) that shared marks, or all of them when shared is nil — within
// of them. occ holds pc's occurrence words, sorted: the local vertices that
// appear — positive of them — are exactly those with f_v(pc) > 0, and a
// vertex's run length is pc's support on it. The edges leaving a positive
// vertex upwards are one run of the base and an endpoint's membership is one
// flag, so the cost follows the positive vertices' edges, not the base.
func (x *expansion) induce(pc itemset.Itemset, nf grown, occ []uint64, positive, within int, shared []bool) *dbnet.ThemeNetwork {
	verts, base := nf.node.Decomp.Vertices, nf.base
	tn := &dbnet.ThemeNetwork{
		Pattern:  pc,
		Vertices: make([]graph.VertexID, 0, positive),
		Freqs:    make([]float64, 0, positive),
		Edges:    make([]graph.Edge, 0, min(within, positive*(positive-1)/2)),
	}
	x.local = x.local[:0]
	for lo, hi := 0, 0; lo < len(occ); lo = hi {
		hi = runEnd(occ, lo, 0)
		i := uint32(occ[lo])
		v := verts[i]
		tn.Vertices = append(tn.Vertices, v)
		tn.Freqs = append(tn.Freqs, float64(hi-lo)/float64(x.nw.Database(v).Len()))
		x.on[i] = true
		x.local = append(x.local, int32(i))
	}
	// Local vertices ascend with the global ones, and each run of upward
	// edges ascends by V: the edges come out ascending by (U, V).
	for _, i := range x.local {
		for k := x.ustart[i]; k < x.ustart[i+1]; k++ {
			if x.on[x.bv[k]] && (shared == nil || shared[k]) {
				tn.Edges = append(tn.Edges, base[k])
			}
		}
	}
	for _, i := range x.local {
		x.on[i] = false
	}
	return tn
}

// firstError returns the first non-nil error of a pool's per-index results.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
