package tctree

import (
	"slices"
	"sync"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// ShardView is the read surface of one loaded shard. What serves queries is a
// BinShard, which traverses the TCBIN layout in place — over a memory-mapped
// file, or over heap bytes an update or an in-process build just encoded.
// The read kernel's tests hold it against NodeView (nodeview_test.go), the
// same traversals over a pointer subtree: both visit the same nodes in the
// same order and hand every retrieved node's vertex run, live removal levels
// and component count to the same kernel (retrieve), so their answers are
// identical, counters included.
//
// A traversal answers with theme communities as flat records, never with
// trusses: a retrieved node costs one pass over its live edges, read in place
// as position pairs, two allocations (its pattern on a BinShard, the vertex
// lists of its communities) and nothing per edge, the traversal one more for
// the records themselves, and the records keep no reference to the shard's
// bytes, so they outlive its eviction. A node whose every level is live and
// whose C*_p(0) its record counts as one component costs no pass over its
// edges at all: its one community is the whole truss. A node recorded with
// several components, or with none (an index written before the count was),
// is split.
type ShardView interface {
	// RootItem returns the shard's root item.
	RootItem() itemset.Item
	// QuerySub runs Algorithm 5 restricted to the shard (sub-pattern
	// semantics: every indexed p ⊆ q): breadth-first traversal, skipping
	// children whose item is not in q and pruning subtrees whose truss is
	// empty at α_q (Proposition 5.2). The caller guarantees the root item
	// is in q by shard selection. A nil q is every item — a query by alpha,
	// or a pattern covering every indexed item — and tests no child.
	//
	// A non-nil floor makes the traversal ranked: it is offered the cohesion
	// of every community retrieved, and a node (the root included) whose α*
	// bound the floor prunes is visited but neither retrieved nor descended
	// into — no community of its subtree can rank among the floor's k best.
	// A nil floor is the unranked query.
	QuerySub(q itemset.Itemset, alphaQ float64, floor *truss.Floor) ShardAnswer
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
	// size of its payload, mapped or on the heap.
	SizeBytes() int64
	// Evicted tells the view that its holder dropped it to make room, so it
	// can stop charging memory before the garbage collector gets to it.
	// Traversals already running on the view must keep working.
	Evicted()
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
// — edges as position pairs into the node's vertex run, u32 when wide and u16
// otherwise — into communities over the run, gathered in the scratch until
// finish, and offers their cohesions to a ranked traversal's floor. It is the
// one place either view turns levels into records.
//
// A whole node — every level live, and C*_p(0) one component by its recorded
// count — is not split: its one community is all of it, every vertex of the
// run (each lies on an edge), every edge, and the first level's threshold as
// cohesion, which is the record Split returns, bit for bit.
func (res *ShardAnswer) retrieve(sc *readScratch, pattern itemset.Itemset, run []graph.VertexID, live []truss.PairLevel, whole, wide bool, floor *truss.Floor) {
	from := len(sc.found)
	switch {
	case whole:
		pairs := 0
		for _, l := range live {
			pairs += len(l.Pairs)
		}
		vertices := make([]graph.VertexID, len(run))
		copy(vertices, run)
		sc.found = append(sc.found, truss.Community{
			Pattern:  pattern,
			Vertices: vertices,
			Edges:    pairs / int(binPairSize(wide)),
			Cohesion: live[0].Alpha,
		})
	case wide:
		sc.found = truss.Split[uint32](&sc.split, pattern, run, live, sc.found)
	default:
		sc.found = truss.Split[uint16](&sc.split, pattern, run, live, sc.found)
	}
	if floor != nil {
		for i := from; i < len(sc.found); i++ {
			floor.Offer(sc.found[i].Cohesion)
		}
	}
	res.Retrieved++
}

// finish moves the gathered communities into the answer — one allocation of
// the exact size, where growing the answer record by record would allocate
// about twice that — and leaves the scratch holding no pointer into it or
// into the shard's bytes.
func (res *ShardAnswer) finish(sc *readScratch) {
	clear(sc.levels[:cap(sc.levels)])
	if len(sc.found) == 0 {
		return
	}
	res.Communities = slices.Clone(sc.found)
	clear(sc.found)
	sc.found = sc.found[:0]
}

// readScratch is what one shard traversal borrows for its duration: the read
// kernel's forest, the communities found so far, and the buffers a view
// fills with a node's vertex run and live levels before handing them over.
type readScratch struct {
	split  truss.Splitter
	found  []truss.Community
	run    []graph.VertexID
	levels []truss.PairLevel
}

// readScratchPool recycles scratch between traversals: they run on the
// engine's worker pool, a few at a time, thousands per second.
var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}
