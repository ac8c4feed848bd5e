package truss

import (
	"math"
	"slices"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// This file is the read kernel: the served path's counterpart of the peeler.
// A query retrieves decompositions, and what it answers with is their theme
// communities at α_q; the kernel derives those straight from the removal
// levels and the vertex set of C*_p(0) — sorted runs, as the index stores
// them — without rebuilding the Truss a miner would hand out. Truss.Communities stays the reference the
// kernel is tested against and shares no code with it.

// Community is one theme community (Definition 3.5) as a flat record: what
// the serving layers merge, rank, cache and render. Records are immutable
// once returned; the communities of one decomposition share Pattern.
type Community struct {
	// Pattern is the theme p.
	Pattern itemset.Itemset
	// Vertices are the community's vertices, ascending.
	Vertices []graph.VertexID
	// Edges is the number of edges of the community.
	Edges int
	// Cohesion is the largest threshold at which the community survives
	// intact: the minimum removal threshold over its edges in L_p. Raising
	// α_q to this value removes at least one of them.
	Cohesion float64
}

// LiveLevels returns the levels that belong to C*_p(alpha): thresholds
// ascend, so they are the suffix starting at the first level LevelLive
// accepts.
func (d *Decomposition) LiveLevels(alpha float64) []Level {
	if d == nil {
		return nil
	}
	live := d.Levels
	for len(live) > 0 && !LevelLive(live[0].Alpha, alpha) {
		live = live[1:]
	}
	return live
}

// Splitter is the scratch space of Split. The zero value is ready; a
// Splitter is reused across calls (its buffers grow to the largest truss it
// has split and are never retained by a result) but not shared between
// goroutines.
type Splitter struct {
	// derived holds the endpoints of the live edges, sorted and
	// deduplicated: the numbering Split falls back to when its run misses
	// an endpoint.
	derived []graph.VertexID
	// forest is the union-find forest over local vertices: local vertex i
	// is the vertex at position i of the numbering.
	forest []splitNode
}

// splitNode is one local vertex of the forest. Everything but parent is
// meaningful at roots only.
type splitNode struct {
	parent uint32
	// size is the number of vertices below the root, edges the number of
	// edges united into it, and slot its community's position in the output,
	// offset by one (zero is "not numbered yet"). A root without edges is a
	// vertex no live edge touches.
	size, edges, slot uint32
	// cohesion is the smallest threshold among the root's edges.
	cohesion float64
}

// Split appends to out the theme communities of the maximal pattern truss
// whose live removal levels are given — its maximal connected subgraphs —
// ordered by smallest vertex, and returns the extended slice. live is
// Decomposition.LiveLevels or its equivalent decoded from a shard: levels in
// ascending threshold order. run is the node's vertex set, strictly
// ascending: the keys of Decomposition.Freq, sorted, or the frequency run of
// a TCBIN node record. It lists every vertex of C*_p(0), so it holds every
// endpoint of a live edge, and any extra vertex — one the peeling at α_q has
// already removed — simply belongs to no community. It is variadic so that a
// view passes its slice as run..., with no copy, and a caller that has no
// run passes none and gets the fallback below.
//
// The run is the kernel's vertex numbering: the pass is a union-find over
// positions in it, one binary search per run of edges sharing U and one per
// other endpoint, then one in-order pass over the run that emits the
// vertices a live edge touched: O(n + m log n) for m live edges on a run of
// n, one allocation (the vertex lists of all the communities, carved from
// one array) and none per edge.
//
// Split trusts nothing about the edges: a self-loop is an edge of its
// vertex's community and an edge stored twice counts twice, where the
// map-based reference would panic on the first and fold the second. An
// endpoint missing from run — every endpoint, when run is empty — sends it
// back to deriving the numbering from the edges themselves (their endpoints,
// sorted and deduplicated), which answers exactly as a complete run would.
// None of this occurs in a decomposition Validate accepts or a shard the
// encoder writes. A run that is not strictly ascending cannot make Split
// panic, but the order of its answer is then unspecified.
func (s *Splitter) Split(pattern itemset.Itemset, live []Level, out []Community, run ...graph.VertexID) []Community {
	touched, ok := s.unite(run, live)
	if !ok {
		s.derived = s.derived[:0]
		for _, l := range live {
			for _, e := range l.Removed {
				s.derived = append(s.derived, e.U, e.V)
			}
		}
		slices.Sort(s.derived)
		s.derived = slices.Compact(s.derived)
		run = s.derived
		// Every endpoint is in the derived run: this pass cannot fail.
		touched, _ = s.unite(run, live)
	}
	if touched == 0 {
		return out
	}

	// Local identifiers ascend with the vertices, so the first vertex that
	// reaches a root is its community's smallest: numbering roots in that
	// order is the smallest-vertex order, and filling in the same pass
	// leaves every vertex list ascending.
	f := s.forest
	vertices := make([]graph.VertexID, touched)
	first, next := len(out), 0
	for i, v := range run {
		r := &f[s.find(uint32(i))]
		if r.edges == 0 {
			continue
		}
		if r.slot == 0 {
			size := int(r.size)
			out = append(out, Community{
				Pattern:  pattern,
				Vertices: vertices[next : next : next+size],
				Edges:    int(r.edges),
				Cohesion: r.cohesion,
			})
			next += size
			r.slot = uint32(len(out) - first)
		}
		c := &out[first+int(r.slot)-1]
		c.Vertices = append(c.Vertices, v)
	}
	return out
}

// unite builds the forest over the positions of run and unites the
// endpoints of every live edge. It returns the number of vertices the edges
// touch, or false as soon as an endpoint is not in run.
func (s *Splitter) unite(run []graph.VertexID, live []Level) (touched int, ok bool) {
	n := len(run)
	f := slices.Grow(s.forest[:0], n)[:n]
	s.forest = f
	for i := range f {
		f[i] = splitNode{parent: uint32(i), size: 1, cohesion: math.Inf(1)}
	}
	for _, l := range live {
		// A level ascends by (U, V): consecutive edges mostly share U, and
		// one search finds its local identifier for all of them. a is U's
		// root: until U changes only edges at U unite anything, so the
		// root each of them leaves is U's root for the next.
		var a uint32
		for k, e := range l.Removed {
			if k == 0 || e.U != l.Removed[k-1].U {
				u, found := local(run, e.U)
				if !found {
					return 0, false
				}
				a = s.find(u)
			}
			v, found := local(run, e.V)
			if !found {
				return 0, false
			}
			b := s.find(v)
			// A root without edges is a vertex no edge has touched yet.
			if f[a].edges == 0 {
				touched++
			}
			if a != b {
				if f[b].edges == 0 {
					touched++
				}
				if f[a].size < f[b].size {
					a, b = b, a
				}
				f[b].parent = a
				f[a].size += f[b].size
				f[a].edges += f[b].edges
				f[a].cohesion = min(f[a].cohesion, f[b].cohesion)
			}
			f[a].edges++
			f[a].cohesion = min(f[a].cohesion, l.Alpha)
		}
	}
	return touched, true
}

// local returns the position of v in run, and whether run holds it.
func local(run []graph.VertexID, v graph.VertexID) (uint32, bool) {
	i, found := slices.BinarySearch(run, v)
	return uint32(i), found
}

// find returns the root of local vertex i, halving the path on the way.
func (s *Splitter) find(i uint32) uint32 {
	f := s.forest
	for f[i].parent != i {
		f[i].parent = f[f[i].parent].parent
		i = f[i].parent
	}
	return i
}
