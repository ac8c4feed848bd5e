package tctree

import (
	"themecomm/internal/core"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// This file implements community search on top of the TC-Tree: retrieving the
// theme communities that contain a given query vertex, in the spirit of the
// k-truss community search of Huang et al. discussed in the paper's related
// work (Section 2.1), but generalized to pattern trusses and answered from the
// index instead of the raw graph.

// SearchVertex returns every theme community that contains the query vertex,
// restricted to themes that are sub-patterns of q and to the cohesion
// threshold alphaQ. Passing a nil or empty q searches every indexed theme.
// Communities are ordered by theme (shorter themes first) and the result
// shares no state with the tree.
func (t *Tree) SearchVertex(v graph.VertexID, q itemset.Itemset, alphaQ float64) []core.Community {
	var qr *QueryResult
	if q.Len() == 0 {
		qr = t.QueryByAlpha(alphaQ)
	} else {
		qr = t.Query(q, alphaQ)
	}
	var out []core.Community
	for _, tr := range qr.Trusses {
		if _, ok := tr.Freq[v]; !ok {
			continue
		}
		for _, comp := range tr.Communities() {
			if containsVertex(comp, v) {
				out = append(out, core.Community{Pattern: tr.Pattern, Edges: comp})
			}
		}
	}
	sortCommunities(out)
	return out
}

// VertexProfile summarises the community memberships of one vertex: every
// theme it participates in at the given threshold, with the size of the
// community it belongs to for that theme.
type VertexProfile struct {
	// Vertex is the profiled vertex.
	Vertex graph.VertexID
	// Themes are the patterns of the communities the vertex belongs to.
	Themes []itemset.Itemset
	// CommunitySizes holds, aligned with Themes, the number of vertices of
	// the community containing the vertex for that theme.
	CommunitySizes []int
}

// ProfileVertex computes the community-membership profile of a vertex at the
// given cohesion threshold.
func (t *Tree) ProfileVertex(v graph.VertexID, alphaQ float64) VertexProfile {
	profile := VertexProfile{Vertex: v}
	for _, c := range t.SearchVertex(v, nil, alphaQ) {
		profile.Themes = append(profile.Themes, c.Pattern)
		profile.CommunitySizes = append(profile.CommunitySizes, len(c.Vertices()))
	}
	return profile
}

func containsVertex(edges graph.EdgeSet, v graph.VertexID) bool {
	for _, e := range edges {
		if e.U == v || e.V == v {
			return true
		}
	}
	return false
}

func sortCommunities(cs []core.Community) {
	// Insertion sort keeps the dependency surface minimal; result sets are
	// small (the communities of a single vertex).
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && lessCommunity(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func lessCommunity(a, b core.Community) bool {
	if a.Pattern.Len() != b.Pattern.Len() {
		return a.Pattern.Len() < b.Pattern.Len()
	}
	return itemset.Compare(a.Pattern, b.Pattern) < 0
}
