// Package truss implements the pattern-truss machinery of the paper: edge
// cohesion (Definition 3.1), the Maximal Pattern Truss Detector MPTD
// (Algorithm 1), and the decomposition of a maximal pattern truss into the
// threshold-ordered linked list L_p used by the TC-Tree (Section 6.1,
// Theorem 6.1).
package truss

import (
	"fmt"
	"slices"
	"sync"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// cohesionTolerance absorbs floating-point drift when comparing edge cohesion
// values against a threshold. Two cohesion values that are mathematically
// equal but reached through different sequences of additions and subtractions
// may differ by a few ULPs; the tolerance makes the "eco ≤ α" test of
// Algorithm 1 stable.
const cohesionTolerance = 1e-9

// LevelLive reports whether a decomposition level with threshold levelAlpha
// still belongs to C*_p(alpha) — the "α_k > α" comparison of Theorem 6.1
// under the cohesion tolerance. It is exported so storage layers that
// reconstruct trusses from flat level tables (the TCBIN shard format) apply
// exactly the comparison Decomposition.EdgesAt applies.
func LevelLive(levelAlpha, alpha float64) bool { return levelAlpha > alpha+cohesionTolerance }

// Truss is a maximal pattern truss C*_p(α): the union of all pattern trusses
// of the theme network G_p with respect to the cohesion threshold Alpha.
// A Truss is not necessarily connected; its maximal connected subgraphs are
// the theme communities of Definition 3.5.
type Truss struct {
	// Pattern is the theme p.
	Pattern itemset.Itemset
	// Alpha is the minimum cohesion threshold the truss was computed for.
	Alpha float64
	// Edges is the edge set E*_p(α).
	Edges graph.EdgeSet
	// Freq maps every vertex of the truss to f_i(p).
	Freq map[graph.VertexID]float64
}

// Empty reports whether the truss has no edges.
func (t *Truss) Empty() bool { return t == nil || t.Edges.Len() == 0 }

// NumEdges returns |E*_p(α)|.
func (t *Truss) NumEdges() int {
	if t == nil {
		return 0
	}
	return t.Edges.Len()
}

// NumVertices returns |V*_p(α)|.
func (t *Truss) NumVertices() int {
	if t == nil {
		return 0
	}
	return len(t.Freq)
}

// Vertices returns the sorted vertices of the truss.
func (t *Truss) Vertices() []graph.VertexID {
	if t == nil {
		return nil
	}
	return t.Edges.Vertices()
}

// Communities returns the theme communities of the truss: its maximal
// connected subgraphs, as edge sets over the original vertex identifiers.
func (t *Truss) Communities() []graph.EdgeSet {
	if t.Empty() {
		return nil
	}
	return t.Edges.ConnectedComponents()
}

// String summarises the truss.
func (t *Truss) String() string {
	if t == nil {
		return "truss.Truss(nil)"
	}
	return fmt.Sprintf("truss.Truss{p=%v, α=%g, |V|=%d, |E|=%d}", t.Pattern, t.Alpha, t.NumVertices(), t.NumEdges())
}

// Detect runs MPTD (Algorithm 1) on the theme network and returns the maximal
// pattern truss with respect to alpha. The returned truss may be empty but is
// never nil.
func Detect(tn *dbnet.ThemeNetwork, alpha float64) *Truss {
	p := newPeeler(tn)
	defer p.release()
	p.peel(alpha)
	edges, vertices, freqs := p.survivors()
	t := &Truss{
		Pattern: tn.Pattern.Clone(),
		Alpha:   alpha,
		Edges:   make(graph.EdgeSet, len(edges)),
		Freq:    make(map[graph.VertexID]float64, len(vertices)),
	}
	for _, e := range edges {
		t.Edges.Add(e)
	}
	for i, v := range vertices {
		t.Freq[v] = freqs[i]
	}
	return t
}

// Cohesions computes the edge cohesion of every edge of the theme network in
// the subgraph formed by the whole theme network (no peeling). It is exposed
// for diagnostics and tests.
func Cohesions(tn *dbnet.ThemeNetwork) map[uint64]float64 {
	p := newPeeler(tn)
	defer p.release()
	out := make(map[uint64]float64, len(p.cohesion))
	for e, eco := range p.cohesion {
		out[tn.Edges[e].Key()] = eco
	}
	return out
}

// peeler is the mutable working state of MPTD over dense local identifiers:
// local vertex i is tn.Vertices[i] and local edge e is tn.Edges[e], both in
// ascending global order. Every sum and every removal runs in that order, so
// the cohesions a peeler computes — and with them every decomposition
// threshold — are a function of the theme network alone, never of map
// iteration or scheduling.
//
// They are a function of less than that: of C*_p(0) alone. Decompose gives
// the same result, bit for bit, for the theme network, for its C*_p(0), and
// for every candidate subgraph in between. peel(0) removes only edges whose
// cohesion is zero, an edge of zero cohesion lies on no surviving triangle,
// so its removal visits no triangle and subtracts nothing from any other
// edge; by induction every edge peel(0) removes was triangle-free from the
// start, every triangle of the input lies wholly inside C*_p(0), and a
// survivor's initial cohesion is the sum over the same triangles in the same
// ascending order of the third vertex whichever candidate subgraph it was
// computed in. Local ids differ between two candidate subgraphs but ascend
// with the global ones in both, so ties break alike and the later peels
// subtract the same weights in the same order. (An edge whose cohesion is
// positive but within cohesionTolerance of zero would break the argument; a
// triangle weighs at least 1/|D_v|, so that takes a vertex database of a
// billion transactions.) A TC-Tree node can therefore be carried over a
// delta that changes the subgraph it was mined in but not its own theme
// network — tctree's scoped rebuild does — and any change that makes a
// threshold depend on the candidate subgraph breaks that:
// TestDecomposeIgnoresTheCandidateSubgraph pins it.
//
// The same holds community by community: a removal subtracts only from
// edges of its own connected component of C*_p(0), so the edges of one
// component leave in the same order, at the same cohesions, whatever else
// the theme network holds, and Decompose gives each component the levels it
// gives that component alone. The scoped rebuild carries the communities a
// delta does not reach over on that ground, and
// TestDecomposeMergesItsComponents pins it.
type peeler struct {
	tn *dbnet.ThemeNetwork
	// eu[e] < ev[e] are the local endpoints of edge e.
	eu, ev []int32
	// The adjacency lists in compressed-row form: the neighbours of vertex i
	// are nbr[start[i]:start[i+1]], ascending, and via[k] is the edge that
	// joins i to nbr[k]. Removed edges stay in the lists and are skipped.
	start, nbr, via []int32
	// cohesion[e] is the current cohesion of edge e in the surviving subgraph.
	cohesion []float64
	removed  []bool
	// heap is a binary min-heap of the surviving edges ordered by
	// (cohesion, edge id); pos[e] is the slot of edge e in it.
	heap, pos []int32
	// on marks the local vertices of surviving edges (survivors).
	on []bool
	// ints backs every []int32 above. A peeler's buffers come from
	// peelerPool and go back with release: nothing a peeler hands out
	// refers to them.
	ints []int32
	// alive lists the surviving edges, ascending (survivors).
	alive []int32
	// Decompose's scratch: a component and a level tag per local vertex
	// and edge (tags), each component's current threshold (at), and the
	// thresholds the levels open at (alphas) and their sorted set (sorted).
	tags               []int32
	at, alphas, sorted []float64
}

var peelerPool = sync.Pool{New: func() any { return new(peeler) }}

// release returns the peeler to the pool; it must not be used afterwards.
func (p *peeler) release() {
	p.tn = nil
	peelerPool.Put(p)
}

// newPeeler builds the working state and runs phase 1 of Algorithm 1: the
// initial cohesion of every edge. It panics on a theme network that breaks
// the ordered-layout invariants of dbnet.ThemeNetwork.
func newPeeler(tn *dbnet.ThemeNetwork) *peeler {
	n, m := len(tn.Vertices), len(tn.Edges)
	if len(tn.Freqs) != n {
		panic(fmt.Sprintf("truss: theme network %v has %d vertices but %d frequencies", tn.Pattern, n, len(tn.Freqs)))
	}
	for i := 1; i < n; i++ {
		if tn.Vertices[i-1] >= tn.Vertices[i] {
			panic(fmt.Sprintf("truss: theme network %v vertices not strictly ascending at %d", tn.Pattern, tn.Vertices[i]))
		}
	}
	p := peelerPool.Get().(*peeler)
	p.tn = tn
	p.ints = slices.Grow(p.ints[:0], 8*m+2*n+1)[:8*m+2*n+1]
	ints := p.ints
	carve := func(k int) []int32 {
		out := ints[:k:k]
		ints = ints[k:]
		return out
	}
	p.eu, p.ev = carve(m), carve(m)
	p.start, p.nbr, p.via = carve(n+1), carve(2*m), carve(2*m)
	p.heap, p.pos = carve(m), carve(m)
	clear(p.start)
	p.cohesion = slices.Grow(p.cohesion[:0], m)[:m]
	p.removed = slices.Grow(p.removed[:0], m)[:m]
	clear(p.removed)
	// The vertices ascend, so the local endpoints of an ascending edge do.
	num := graph.NumberRun(tn.Vertices)
	defer num.Release()
	for e, edge := range tn.Edges {
		if e > 0 && graph.CompareEdges(tn.Edges[e-1], edge) >= 0 {
			panic(fmt.Sprintf("truss: theme network %v edges not strictly ascending at %v", tn.Pattern, edge))
		}
		u, uok := num.Index(edge.U)
		v, vok := num.Index(edge.V)
		if !uok || !vok || u >= v {
			panic(fmt.Sprintf("truss: theme network %v edge %v has an endpoint outside its vertices", tn.Pattern, edge))
		}
		p.eu[e], p.ev[e] = int32(u), int32(v)
		p.start[u+1]++
		p.start[v+1]++
	}
	for i := 0; i < n; i++ {
		p.start[i+1] += p.start[i]
	}
	// Edges ascend by (U, V): appending every edge to its upper endpoint's
	// list first, then to its lower endpoint's, leaves each list ascending.
	next := carve(n)
	copy(next, p.start)
	for e := range tn.Edges {
		k := next[p.ev[e]]
		p.nbr[k], p.via[k] = p.eu[e], int32(e)
		next[p.ev[e]]++
	}
	for e := range tn.Edges {
		k := next[p.eu[e]]
		p.nbr[k], p.via[k] = p.ev[e], int32(e)
		next[p.eu[e]]++
	}
	for e := range tn.Edges {
		total := 0.0
		p.triangles(int32(e), func(_, _ int32, weight float64) { total += weight })
		p.cohesion[e] = total
		p.heap[e], p.pos[e] = int32(e), int32(e)
	}
	for i := m/2 - 1; i >= 0; i-- {
		p.siftDown(i)
	}
	return p
}

// triangles calls visit for every surviving triangle on edge e = (u, v), in
// ascending order of the third vertex w, with the two other edges (u, w) and
// (v, w) and the triangle's weight min(f_u, f_v, f_w) of Definition 3.1. The
// common neighbours come from one merge of the two sorted adjacency lists.
func (p *peeler) triangles(e int32, visit func(uw, vw int32, weight float64)) {
	u, v := p.eu[e], p.ev[e]
	fuv := min(p.tn.Freqs[u], p.tn.Freqs[v])
	i, iEnd := p.start[u], p.start[u+1]
	j, jEnd := p.start[v], p.start[v+1]
	for i < iEnd && j < jEnd {
		switch {
		case p.nbr[i] < p.nbr[j]:
			i++
		case p.nbr[i] > p.nbr[j]:
			j++
		default:
			if uw, vw := p.via[i], p.via[j]; !p.removed[uw] && !p.removed[vw] {
				visit(uw, vw, min(fuv, p.tn.Freqs[p.nbr[i]]))
			}
			i++
			j++
		}
	}
}

// peel removes every edge whose cohesion is at most alpha, cascading the
// cohesion updates of Algorithm 1 lines 9-18, until all surviving edges have
// cohesion strictly greater than alpha. Edges leave in ascending
// (cohesion, edge id) order.
func (p *peeler) peel(alpha float64) {
	for len(p.heap) > 0 && p.cohesion[p.heap[0]] <= alpha+cohesionTolerance {
		p.pop()
	}
}

// pop removes the edge at the top of the heap — the surviving edge of least
// (cohesion, edge id) — and subtracts its triangles from the other edges'
// cohesions. It returns the edge.
func (p *peeler) pop() int32 {
	e := p.heap[0]
	last := len(p.heap) - 1
	p.heap[0] = p.heap[last]
	p.heap = p.heap[:last]
	if last > 0 {
		p.siftDown(0)
	}
	p.removed[e] = true
	p.triangles(e, func(uw, vw int32, weight float64) {
		p.cohesion[uw] -= weight
		p.siftUp(int(p.pos[uw]))
		p.cohesion[vw] -= weight
		p.siftUp(int(p.pos[vw]))
	})
	return e
}

// before reports whether edge a leaves the heap before edge b.
func (p *peeler) before(a, b int32) bool {
	if p.cohesion[a] != p.cohesion[b] {
		return p.cohesion[a] < p.cohesion[b]
	}
	return a < b
}

func (p *peeler) siftUp(i int) {
	e := p.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !p.before(e, p.heap[parent]) {
			break
		}
		p.heap[i] = p.heap[parent]
		p.pos[p.heap[i]] = int32(i)
		i = parent
	}
	p.heap[i] = e
	p.pos[e] = int32(i)
}

func (p *peeler) siftDown(i int) {
	e := p.heap[i]
	for {
		child := 2*i + 1
		if child >= len(p.heap) {
			break
		}
		if child+1 < len(p.heap) && p.before(p.heap[child+1], p.heap[child]) {
			child++
		}
		if !p.before(p.heap[child], e) {
			break
		}
		p.heap[i] = p.heap[child]
		p.pos[p.heap[i]] = int32(i)
		i = child
	}
	p.heap[i] = e
	p.pos[e] = int32(i)
}

// survivors returns the surviving subgraph in the theme network's layout:
// its edges, ascending by (U, V) — the surviving local edges in order, which
// it leaves in alive — and the vertices incident to them, ascending, with
// f_v(p). Local ids ascend with the global ones, so nothing is sorted.
func (p *peeler) survivors() (edges []graph.Edge, vertices []graph.VertexID, freqs []float64) {
	p.on = slices.Grow(p.on[:0], len(p.tn.Vertices))[:len(p.tn.Vertices)]
	on := p.on
	clear(on)
	edges = make([]graph.Edge, 0, len(p.heap))
	p.alive = p.alive[:0]
	for e, gone := range p.removed {
		if !gone {
			edges = append(edges, p.tn.Edges[e])
			p.alive = append(p.alive, int32(e))
			on[p.eu[e]], on[p.ev[e]] = true, true
		}
	}
	n := 0
	for _, ok := range on {
		if ok {
			n++
		}
	}
	vertices, freqs = make([]graph.VertexID, 0, n), make([]float64, 0, n)
	for i, ok := range on {
		if ok {
			vertices = append(vertices, p.tn.Vertices[i])
			freqs = append(freqs, p.tn.Freqs[i])
		}
	}
	return edges, vertices, freqs
}
