package graph

import (
	"cmp"
	"slices"
)

// CompareEdges orders canonical edges by (U, V): the order of Graph.Edges and
// EdgeSet.Edges.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// EdgeSet is a set of canonical edges keyed by Edge.Key. It preserves global
// vertex identifiers, which makes it the natural representation of pattern
// trusses and theme communities extracted from a database network.
type EdgeSet map[uint64]Edge

// NewEdgeSet returns an EdgeSet containing the given edges.
func NewEdgeSet(edges ...Edge) EdgeSet {
	s := make(EdgeSet, len(edges))
	for _, e := range edges {
		s.Add(e)
	}
	return s
}

// Add inserts e into the set.
func (s EdgeSet) Add(e Edge) { s[e.Key()] = e }

// Remove deletes e from the set.
func (s EdgeSet) Remove(e Edge) { delete(s, e.Key()) }

// Contains reports whether e is in the set.
func (s EdgeSet) Contains(e Edge) bool {
	_, ok := s[e.Key()]
	return ok
}

// Len returns the number of edges in the set.
func (s EdgeSet) Len() int { return len(s) }

// Edges returns the edges sorted by (U, V).
func (s EdgeSet) Edges() []Edge {
	out := make([]Edge, 0, len(s))
	for _, e := range s {
		out = append(out, e)
	}
	slices.SortFunc(out, CompareEdges)
	return out
}

// Vertices returns the sorted set of vertices incident to at least one edge of
// the set.
func (s EdgeSet) Vertices() []VertexID {
	seen := make(map[VertexID]bool, len(s))
	for _, e := range s {
		seen[e.U] = true
		seen[e.V] = true
	}
	out := make([]VertexID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	SortVertices(out)
	return out
}

// Clone returns a copy of the set.
func (s EdgeSet) Clone() EdgeSet {
	cp := make(EdgeSet, len(s))
	for k, e := range s {
		cp[k] = e
	}
	return cp
}

// Intersect returns the edges present in both sets.
func (s EdgeSet) Intersect(other EdgeSet) EdgeSet {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	out := make(EdgeSet)
	for k, e := range small {
		if _, ok := large[k]; ok {
			out[k] = e
		}
	}
	return out
}

// Union returns the edges present in either set.
func (s EdgeSet) Union(other EdgeSet) EdgeSet {
	out := make(EdgeSet, len(s)+len(other))
	for k, e := range s {
		out[k] = e
	}
	for k, e := range other {
		out[k] = e
	}
	return out
}

// Minus returns the edges of s that are not in other.
func (s EdgeSet) Minus(other EdgeSet) EdgeSet {
	out := make(EdgeSet)
	for k, e := range s {
		if _, ok := other[k]; !ok {
			out[k] = e
		}
	}
	return out
}

// Equal reports whether the two sets contain exactly the same edges.
func (s EdgeSet) Equal(other EdgeSet) bool {
	if len(s) != len(other) {
		return false
	}
	for k := range s {
		if _, ok := other[k]; !ok {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every edge of s is in other.
func (s EdgeSet) SubsetOf(other EdgeSet) bool {
	if len(s) > len(other) {
		return false
	}
	for k := range s {
		if _, ok := other[k]; !ok {
			return false
		}
	}
	return true
}

// Adjacency builds a sorted adjacency-list view of the edge set, keyed by the
// original vertex identifiers.
func (s EdgeSet) Adjacency() map[VertexID][]VertexID {
	adj := make(map[VertexID][]VertexID)
	for _, e := range s {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for v := range adj {
		SortVertices(adj[v])
	}
	return adj
}

// ConnectedComponents returns the maximal connected subgraphs of the edge set
// as slices of edge sets, ordered by their smallest vertex. Vertices are the
// original identifiers. Extracting theme communities from a maximal pattern
// truss (Definition 3.5) is exactly this operation.
func (s EdgeSet) ConnectedComponents() []EdgeSet {
	adj := s.Adjacency()
	visited := make(map[VertexID]bool, len(adj))
	// Deterministic order: iterate vertices sorted.
	verts := s.Vertices()
	var comps []EdgeSet
	for _, start := range verts {
		if visited[start] {
			continue
		}
		comp := make(EdgeSet)
		queue := []VertexID{start}
		visited[start] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				comp.Add(EdgeOf(u, w))
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
