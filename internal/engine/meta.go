package engine

import (
	"cmp"
	"context"
	"slices"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// This file gives the engine the index-metadata surface every reader of an
// index uses — the HTTP server, the facade's examples and the experiments —
// so none of them needs the whole tree: totals come from the manifest, and
// traversals (patterns listing, vertex search) load only the shards they
// need.

// NumNodes returns the number of indexed nodes across all shards. On lazy
// engines it comes from the manifest, without loading any shard.
func (e *Engine) NumNodes() int {
	total := 0
	for _, s := range e.table.Load().shards {
		n, _, _ := s.meta()
		total += n
	}
	return total
}

// Depth returns the longest indexed pattern length across all shards.
func (e *Engine) Depth() int {
	depth := 0
	for _, s := range e.table.Load().shards {
		_, d, _ := s.meta()
		if d > depth {
			depth = d
		}
	}
	return depth
}

// MaxAlpha returns the largest non-trivial cohesion threshold over every
// indexed theme network (the largest per-shard α* bound). Queries with a
// larger α_q return nothing.
func (e *Engine) MaxAlpha() float64 {
	maxAlpha := 0.0
	for _, s := range e.table.Load().shards {
		_, _, a := s.meta()
		if a > maxAlpha {
			maxAlpha = a
		}
	}
	return maxAlpha
}

// PatternsAtDepth returns the indexed patterns of the given length, sorted.
// Depth 1 is answered from the shard catalogue alone; deeper listings load
// (and keep within the residency budget) only the shards whose manifest
// depth reaches the requested length, and stop with ctx.Err() before the
// next shard once ctx is done.
func (e *Engine) PatternsAtDepth(ctx context.Context, depth int) ([]itemset.Itemset, error) {
	if depth < 1 {
		return nil, nil
	}
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	t := e.table.Load()
	if depth == 1 {
		out := make([]itemset.Itemset, 0, len(t.shards))
		for _, s := range t.shards {
			out = append(out, itemset.New(s.item))
		}
		return out, nil
	}
	var out []itemset.Itemset
	for _, s := range t.shards {
		_, shardDepth, _ := s.meta()
		if shardDepth < depth {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		view, _, err := e.acquire(s)
		if err != nil {
			return nil, err
		}
		view.WalkPatterns(func(p itemset.Itemset) {
			if p.Len() == depth {
				out = append(out, p)
			}
		})
	}
	e.res.enforce(nil)
	return out, nil
}

// SearchVertex returns every theme community that contains the query vertex,
// restricted to themes that are sub-patterns of q (nil or empty means every
// indexed theme) and to the cohesion threshold alphaQ — the community-search
// counterpart of the k-truss search in the paper's related work, and the
// only vertex search over an index. It loads only the shards q touches: the
// answer of QueryContext(ctx, q, alphaQ) — cached like any other, observed
// under ctx's request ID — filtered by a binary search of each record's
// vertex list. Communities are ordered by theme, shorter themes first.
func (e *Engine) SearchVertex(ctx context.Context, v graph.VertexID, q itemset.Itemset, alphaQ float64) ([]truss.Community, error) {
	if q.Len() == 0 {
		q = nil
	}
	res, err := e.QueryContext(ctx, q, alphaQ)
	if err != nil {
		return nil, err
	}
	var out []truss.Community
	for _, c := range res.Communities {
		if _, ok := slices.BinarySearch(c.Vertices, v); ok {
			out = append(out, c)
		}
	}
	slices.SortStableFunc(out, func(a, b truss.Community) int {
		if c := cmp.Compare(a.Pattern.Len(), b.Pattern.Len()); c != 0 {
			return c
		}
		return itemset.Compare(a.Pattern, b.Pattern)
	})
	return out, nil
}
