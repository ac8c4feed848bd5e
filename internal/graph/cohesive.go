package graph

// This file implements the classic cohesive-subgraph baseline that the
// pattern truss of the paper generalizes: the k-truss (Cohen). Section 3.2
// notes that a pattern truss with all frequencies equal to 1 and α = k-3 is
// exactly a k-truss; the tests of internal/truss verify this equivalence
// against the implementation here.

// KTruss returns the maximal k-truss of g: the maximal set of edges such that
// every edge is contained in at least k-2 triangles whose edges all belong to
// the set. For k <= 2 the result is all edges of g.
func KTruss(g *Graph, k int) EdgeSet {
	edges := NewEdgeSet(g.Edges()...)
	if k <= 2 {
		return edges
	}
	need := k - 2
	adj := edges.Adjacency()

	support := make(map[uint64]int, edges.Len())
	for key, e := range edges {
		support[key] = len(IntersectSorted(adj[e.U], adj[e.V]))
	}

	queue := make([]Edge, 0)
	inQueue := make(map[uint64]bool)
	for key, e := range edges {
		if support[key] < need {
			queue = append(queue, e)
			inQueue[key] = true
		}
	}

	removeNeighbor := func(u, v VertexID) {
		l := adj[u]
		for i, x := range l {
			if x == v {
				adj[u] = append(l[:i:i], l[i+1:]...)
				return
			}
		}
	}

	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		key := e.Key()
		if !edges.Contains(e) {
			continue
		}
		// Every common neighbor w loses a triangle on edges (U,w) and (V,w).
		for _, w := range IntersectSorted(adj[e.U], adj[e.V]) {
			for _, other := range []Edge{EdgeOf(e.U, w), EdgeOf(e.V, w)} {
				ok := other.Key()
				if !edges.Contains(other) {
					continue
				}
				support[ok]--
				if support[ok] < need && !inQueue[ok] {
					queue = append(queue, other)
					inQueue[ok] = true
				}
			}
		}
		edges.Remove(e)
		delete(support, key)
		removeNeighbor(e.U, e.V)
		removeNeighbor(e.V, e.U)
	}
	return edges
}
