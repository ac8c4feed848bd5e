package engine

import (
	"context"
	"time"

	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// This file is the ranked answer: TopKWithResultContext, the order it ranks
// by (lessRanked), and the binary heap the ranked merge keeps. A top-k is one
// ranked execution of the one executor (stream.go): shards open in
// descending α*-bound order, a truss.Floor of the k best cohesions retrieved
// so far prunes every shard and subtree whose bound cannot reach it, and a
// k-way merge of the opened shards' ranked communities yields the answer.

// TopKWithResultContext answers (q, α_q) with its k best communities, ranked
// by descending cohesion — the largest threshold at which a community
// survives intact — then descending size (vertices, then edges), with a
// deterministic pattern/vertex tiebreak. k <= 0 means every community. It
// pulls the ranked execution StreamTopK hands out to its end, holding the
// engine's update lock for reading from plan to last open, so it never
// fails with ErrEpochChanged; the returned Answer carries the ranked
// communities and what the execution retrieved and visited, which is less
// than QueryContext's full answer whenever the floor prunes. The result cache
// is bypassed in both directions. It counts in TopKQueries and Queries.
// cmd/tcload pins the name.
func (e *Engine) TopKWithResultContext(ctx context.Context, q itemset.Itemset, alphaQ float64, k int) (*Answer, []truss.Community, error) {
	start := time.Now()
	e.topKs.Add(1)
	e.queries.Add(1)
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	st := e.stream(ctx, start, q, alphaQ, true, k)
	st.held = true
	// Appended, never sized by k: k has no upper bound.
	var ranked []truss.Community
	rc, err := st.Next()
	for ; rc != nil; rc, err = st.Next() {
		ranked = append(ranked, *rc)
	}
	total := st.finish()
	// A drained execution delivers through its merge: what the pulls spent
	// beyond planning and opening shards.
	st.mergeDur = max(total-st.planDur-st.execDur, 0)
	st.observe(total, 0)
	if err != nil {
		return nil, nil, err
	}
	stats := st.Stats()
	return &Answer{Communities: ranked, RetrievedNodes: stats.RetrievedNodes, VisitedNodes: stats.VisitedNodes, Duration: total}, ranked, nil
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
