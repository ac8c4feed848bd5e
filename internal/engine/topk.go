package engine

import (
	"context"
	"slices"

	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// TopKWithResultContext answers (q, α_q) like QueryContext and also returns
// its k best communities, ranked by descending cohesion — the largest
// threshold at which a community survives intact — then descending size
// (vertices, then edges), with a deterministic pattern/vertex tiebreak. k <= 0
// means every community. It ranks the possibly cached answer, so repeated
// top-k workloads hit the result cache. cmd/tcload pins the name.
func (e *Engine) TopKWithResultContext(ctx context.Context, q itemset.Itemset, alphaQ float64, k int) (*Answer, []truss.Community, error) {
	e.topKs.Add(1)
	res, err := e.QueryContext(ctx, q, alphaQ)
	if err != nil {
		return nil, nil, err
	}
	return res, bestK(res.Communities, k), nil
}

// bestK returns the k communities that order first under lessRanked, in that
// order, leaving comms (a possibly cached answer) untouched. lessRanked is a
// strict total order on the communities of one answer, so selecting is the
// same as sorting everything and truncating; it keeps a heap of k records
// with the worst of them on top and looks at every other record once.
func bestK(comms []truss.Community, k int) []truss.Community {
	if k <= 0 || k >= len(comms) {
		out := slices.Clone(comms)
		slices.SortFunc(out, compareRanked)
		return out
	}
	worse := func(a, b *truss.Community) bool { return lessRanked(b, a) }
	best := make([]*truss.Community, k)
	for i := range best {
		best[i] = &comms[i]
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(best, i, worse)
	}
	for i := k; i < len(comms); i++ {
		if c := &comms[i]; lessRanked(c, best[0]) {
			best[0] = c
			siftDown(best, 0, worse)
		}
	}
	out := make([]truss.Community, k)
	for i, c := range best {
		out[i] = *c
	}
	slices.SortFunc(out, compareRanked)
	return out
}

// siftDown restores a binary heap after h[i] changed: it sinks until neither
// child goes before it. siftUp is its counterpart for an element appended at
// i. before(a, b) says a belongs nearer the top than b.
func siftDown[T any](h []T, i int, before func(a, b T) bool) {
	for {
		top := i
		if l := 2*i + 1; l < len(h) && before(h[l], h[top]) {
			top = l
		}
		if r := 2*i + 2; r < len(h) && before(h[r], h[top]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

func siftUp[T any](h []T, i int, before func(a, b T) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// LessRanked reports whether a orders strictly before b in the top-k order:
// cohesion descending, then size (vertices, then edges) descending, then a
// deterministic pattern/vertex tiebreak. It is exported so that a federation
// can merge per-network top-k answers into one globally ordered list with
// exactly the ranking TopKWithResultContext used per network.
func LessRanked(a, b *truss.Community) bool { return lessRanked(a, b) }

// lessRanked orders communities best-first: cohesion desc, vertices desc,
// edges desc, then pattern and smallest vertex ascending for determinism.
func lessRanked(a, b *truss.Community) bool {
	if a.Cohesion != b.Cohesion {
		return a.Cohesion > b.Cohesion
	}
	if len(a.Vertices) != len(b.Vertices) {
		return len(a.Vertices) > len(b.Vertices)
	}
	if a.Edges != b.Edges {
		return a.Edges > b.Edges
	}
	if c := itemset.Compare(a.Pattern, b.Pattern); c != 0 {
		return c < 0
	}
	return a.Vertices[0] < b.Vertices[0]
}

// compareRanked is lessRanked as a three-way comparison.
func compareRanked(a, b truss.Community) int {
	switch {
	case lessRanked(&a, &b):
		return -1
	case lessRanked(&b, &a):
		return 1
	}
	return 0
}
