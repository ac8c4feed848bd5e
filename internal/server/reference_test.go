package server

import (
	"strconv"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// referenceNames is the struct-building renderer the answer encoder
// replaced: it turns each answer into QueryResponse and CommunityResponse
// values, one []string per theme and vertex list, for encoding/json to
// reflect over. The encoder must write exactly the bytes encoding/json
// writes for these values (FuzzAnswerEncoding).
type referenceNames struct {
	dict        *itemset.Dictionary
	vertexNames []string
}

// items renders an itemset through the dictionary, falling back to numeric
// identifiers.
func (rn referenceNames) items(p itemset.Itemset) []string {
	out := make([]string, 0, p.Len())
	for _, it := range p {
		if rn.dict != nil {
			if name, err := rn.dict.Name(it); err == nil {
				out = append(out, name)
				continue
			}
		}
		out = append(out, strconv.Itoa(int(it)))
	}
	return out
}

// vertices renders vertices through the optional display-name table.
func (rn referenceNames) vertices(vs []graph.VertexID) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		if int(v) < len(rn.vertexNames) {
			out = append(out, rn.vertexNames[v])
			continue
		}
		out = append(out, strconv.Itoa(int(v)))
	}
	return out
}

// community renders one community record; only ranked (top-k) answers show
// its cohesion.
func (rn referenceNames) community(c *truss.Community, ranked bool) CommunityResponse {
	resp := CommunityResponse{Theme: rn.items(c.Pattern), Vertices: rn.vertices(c.Vertices), Edges: c.Edges}
	if ranked {
		resp.Cohesion = c.Cohesion
	}
	return resp
}

// query renders one answer.
func (rn referenceNames) query(h *answerHead, cs []truss.Community, ranked bool, nextCursor string) QueryResponse {
	resp := QueryResponse{
		Alpha:          h.alpha,
		Contains:       h.contains,
		TopK:           h.topK,
		RetrievedNodes: h.retrieved,
		VisitedNodes:   h.visited,
		QueryMicros:    h.micros,
		NextCursor:     nextCursor,
	}
	if h.pattern != nil {
		resp.Pattern = rn.items(h.pattern)
	}
	if len(cs) > 0 { // an empty answer stays "communities":null
		resp.Communities = make([]CommunityResponse, len(cs))
	}
	for i := range cs {
		resp.Communities[i] = rn.community(&cs[i], ranked)
	}
	return resp
}
