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
// levels — sorted runs, as the index stores them — without rebuilding the
// Truss a miner would hand out. Truss.Communities stays the reference the
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
	// verts holds the endpoints of the live edges, then their sorted
	// distinct values: local vertex i is verts[i].
	verts []graph.VertexID
	// forest is the union-find forest over local vertices.
	forest []splitNode
}

// splitNode is one local vertex of the forest. Everything but parent is
// meaningful at roots only.
type splitNode struct {
	parent uint32
	// size is the number of vertices below the root, edges the number of
	// edges united into it, and slot its community's position in the output,
	// offset by one (zero is "not numbered yet").
	size, edges, slot uint32
	// cohesion is the smallest threshold among the root's edges.
	cohesion float64
}

// Split appends to out the theme communities of the maximal pattern truss
// whose live removal levels are given — its maximal connected subgraphs —
// ordered by smallest vertex, and returns the extended slice. live is
// Decomposition.LiveLevels or its equivalent decoded from a shard: levels in
// ascending threshold order. The pass is a union-find over dense local
// vertex identifiers: O(m log n) for m live edges on n vertices, one
// allocation (the vertex lists of all the communities, carved from one
// array) and none per edge.
//
// Split reads nothing but the edges it is given and trusts nothing about
// them: a self-loop is an edge of its vertex's community and an edge stored
// twice counts twice, where the map-based reference would panic on the first
// and fold the second. Neither occurs in a decomposition Validate accepts.
func (s *Splitter) Split(pattern itemset.Itemset, live []Level, out []Community) []Community {
	s.verts = s.verts[:0]
	for _, l := range live {
		for _, e := range l.Removed {
			s.verts = append(s.verts, e.U, e.V)
		}
	}
	if len(s.verts) == 0 {
		return out
	}
	slices.Sort(s.verts)
	s.verts = slices.Compact(s.verts)
	n := len(s.verts)
	f := slices.Grow(s.forest[:0], n)[:n]
	s.forest = f
	for i := range f {
		f[i] = splitNode{parent: uint32(i), size: 1, cohesion: math.Inf(1)}
	}

	for _, l := range live {
		// A level ascends by (U, V): consecutive edges mostly share U, and
		// one search finds its local identifier for the whole run.
		var u uint32
		for k, e := range l.Removed {
			if k == 0 || e.U != l.Removed[k-1].U {
				u = s.local(e.U)
			}
			a, b := s.find(u), s.find(s.local(e.V))
			if a != b {
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

	// Local identifiers ascend with the vertices, so the first vertex that
	// reaches a root is its community's smallest: numbering roots in that
	// order is the smallest-vertex order, and filling in the same pass
	// leaves every vertex list ascending.
	vertices := make([]graph.VertexID, n)
	first, next := len(out), 0
	for i, v := range s.verts {
		r := &f[s.find(uint32(i))]
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

// local returns the dense identifier of a vertex Split collected.
func (s *Splitter) local(v graph.VertexID) uint32 {
	i, _ := slices.BinarySearch(s.verts, v)
	return uint32(i)
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
