package dbnet

import (
	"slices"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// ThemeNetwork is the theme network G_p induced by a pattern p (Section 3.1):
// the subgraph of the database network on the vertices whose database has
// f_i(p) > 0, together with the frequency of p on each such vertex. Vertex
// identifiers are those of the originating database network.
//
// The layout is ordered, so everything computed from a theme network — edge
// cohesions, peeling order, decomposition thresholds — is a function of its
// content alone: Vertices ascends, Freqs runs parallel to it, and Edges
// ascends by (U, V) with both endpoints in Vertices.
type ThemeNetwork struct {
	// Pattern is the theme p that induced the network.
	Pattern itemset.Itemset
	// Vertices are the vertices of the theme network, ascending.
	Vertices []graph.VertexID
	// Freqs[i] is f_{Vertices[i]}(p) > 0.
	Freqs []float64
	// Edges are the edges of the database network whose endpoints both belong
	// to the theme network, ascending by (U, V).
	Edges []graph.Edge
}

// NumVertices returns the number of vertices of the theme network.
func (tn *ThemeNetwork) NumVertices() int { return len(tn.Vertices) }

// NumEdges returns the number of edges of the theme network.
func (tn *ThemeNetwork) NumEdges() int { return len(tn.Edges) }

// Frequency returns f_v(p) for a vertex of the theme network, or 0 for
// vertices outside it.
func (tn *ThemeNetwork) Frequency(v graph.VertexID) float64 {
	if i, ok := slices.BinarySearch(tn.Vertices, v); ok {
		return tn.Freqs[i]
	}
	return 0
}

// ThemeNetwork induces G_p from the full database network: the subgraph on
// the vertices with f_i(p) > 0. The empty pattern induces the whole network
// with frequency 1 on every vertex whose database is non-empty.
func (nw *Network) ThemeNetwork(p itemset.Itemset) *ThemeNetwork {
	tn := &ThemeNetwork{Pattern: p.Clone()}
	switch p.Len() {
	case 0:
		for v, db := range nw.dbs {
			if !db.Empty() {
				tn.Vertices = append(tn.Vertices, graph.VertexID(v))
				tn.Freqs = append(tn.Freqs, 1)
			}
		}
	case 1:
		l := nw.ItemVertices(p[0])
		tn.Vertices = make([]graph.VertexID, len(l))
		tn.Freqs = make([]float64, len(l))
		for i, vf := range l {
			tn.Vertices[i], tn.Freqs[i] = vf.Vertex, vf.Frequency
		}
	default:
		tn.addPositive(nw, nw.candidateVertices(p))
	}
	tn.addEdges(nw)
	return tn
}

// ThemeNetworkAmong induces G_p on the given vertices, ascending: the
// subgraph of G_p on the vertices among them with f_i(p) > 0. A scoped
// rebuild induces a shard root's theme network on the region a delta can
// change, not on the whole network.
func (nw *Network) ThemeNetworkAmong(p itemset.Itemset, among []graph.VertexID) *ThemeNetwork {
	tn := &ThemeNetwork{Pattern: p.Clone()}
	tn.addPositive(nw, among)
	tn.addEdges(nw)
	return tn
}

// addEdges appends every edge of the network between two of the theme
// network's vertices. Membership is one lookup in the vertices' numbering.
// Neighbour lists ascend, so the edges come out ascending by (U, V).
func (tn *ThemeNetwork) addEdges(nw *Network) {
	num := graph.NumberRun(tn.Vertices)
	defer num.Release()
	for _, v := range tn.Vertices {
		for _, w := range nw.g.Neighbors(v) {
			if w <= v {
				continue
			}
			if _, ok := num.Index(w); ok {
				tn.Edges = append(tn.Edges, graph.Edge{U: v, V: w})
			}
		}
	}
}

// ThemeNetworkWithin induces the theme network of p restricted to the given
// edge set: only vertices incident to within and with f_i(p) > 0 are
// considered, and only edges of within whose endpoints both qualify are kept.
// This is the restricted induction used by TCFI (Section 5.3), where within
// is the intersection of the maximal pattern trusses of two sub-patterns.
func (nw *Network) ThemeNetworkWithin(p itemset.Itemset, within graph.EdgeSet) *ThemeNetwork {
	if within == nil {
		return nw.ThemeNetwork(p)
	}
	edges := within.Edges()
	endpoints := make([]graph.VertexID, 0, 2*len(edges))
	for _, e := range edges {
		endpoints = append(endpoints, e.U, e.V)
	}
	slices.Sort(endpoints)
	tn := &ThemeNetwork{Pattern: p.Clone()}
	tn.addPositive(nw, slices.Compact(endpoints))
	num := graph.NumberRun(tn.Vertices)
	defer num.Release()
	for _, e := range edges {
		_, uok := num.Index(e.U)
		if _, vok := num.Index(e.V); uok && vok {
			tn.Edges = append(tn.Edges, e)
		}
	}
	return tn
}

// addPositive appends the candidate vertices (ascending) on which the
// pattern has positive frequency, with that frequency.
func (tn *ThemeNetwork) addPositive(nw *Network, candidates []graph.VertexID) {
	for _, v := range candidates {
		if f := nw.dbs[v].Frequency(tn.Pattern); f > 0 {
			tn.Vertices = append(tn.Vertices, v)
			tn.Freqs = append(tn.Freqs, f)
		}
	}
}

// candidateVertices returns the vertices whose databases contain every item of
// p (a necessary condition for f_i(p) > 0), ascending, computed by
// intersecting the per-item vertex lists, rarest item first.
func (nw *Network) candidateVertices(p itemset.Itemset) []graph.VertexID {
	lists := make([][]VertexFrequency, 0, p.Len())
	for _, it := range p {
		l := nw.ItemVertices(it)
		if len(l) == 0 {
			return nil
		}
		lists = append(lists, l)
	}
	slices.SortStableFunc(lists, func(a, b []VertexFrequency) int { return len(a) - len(b) })
	current := make([]graph.VertexID, 0, len(lists[0]))
	for _, vf := range lists[0] {
		current = append(current, vf.Vertex)
	}
	for _, l := range lists[1:] {
		// Keep, in place, the members of current that also appear in l.
		kept, j := current[:0], 0
		for _, v := range current {
			for j < len(l) && l[j].Vertex < v {
				j++
			}
			if j < len(l) && l[j].Vertex == v {
				kept = append(kept, v)
			}
		}
		current = kept
	}
	return current
}
