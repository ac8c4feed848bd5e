package tctree

import (
	"time"

	"themecomm/internal/core"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// QueryResult is the answer to a TC-Tree query (q, α_q): every non-empty
// maximal pattern truss C*_p(α_q) with p ⊆ q, together with query statistics.
type QueryResult struct {
	// Trusses are the retrieved maximal pattern trusses, in tree (breadth
	// first) order.
	Trusses []*truss.Truss
	// RetrievedNodes is the number of TC-Tree nodes whose truss was retrieved
	// ("RN" in Figure 5 of the paper). It equals len(Trusses).
	RetrievedNodes int
	// VisitedNodes is the number of TC-Tree nodes inspected, including nodes
	// whose truss was empty at α_q.
	VisitedNodes int
	// Duration is the wall-clock query time.
	Duration time.Duration
}

// Communities extracts every theme community (maximal connected subgraph,
// Definition 3.5) from the retrieved maximal pattern trusses.
func (qr *QueryResult) Communities() []core.Community {
	var out []core.Community
	for _, t := range qr.Trusses {
		for _, comp := range t.Communities() {
			out = append(out, core.Community{Pattern: t.Pattern, Edges: comp})
		}
	}
	return out
}

// Query answers (q, α_q) following Algorithm 5: it traverses the tree breadth
// first, skips subtrees whose item is not in q (their patterns cannot be
// sub-patterns of q), reconstructs each visited node's truss at α_q from its
// decomposition (Equation 1), and prunes subtrees whose truss is empty
// (Proposition 5.2).
func (t *Tree) Query(q itemset.Itemset, alphaQ float64) *QueryResult {
	start := time.Now()
	res := &QueryResult{}
	if t == nil || t.root == nil {
		res.Duration = time.Since(start)
		return res
	}
	queue := []*Node{t.root}
	for len(queue) > 0 {
		nf := queue[0]
		queue = queue[1:]
		for _, nc := range nf.Children {
			if !q.Contains(nc.Item) {
				continue
			}
			res.VisitedNodes++
			tr := nc.Decomp.TrussAt(alphaQ)
			if tr.Empty() {
				continue
			}
			res.Trusses = append(res.Trusses, tr)
			res.RetrievedNodes++
			queue = append(queue, nc)
		}
	}
	res.Duration = time.Since(start)
	return res
}

// QueryByAlpha answers the "query by alpha" workload of Section 7.3: q = S
// (every item), so the answer contains every maximal pattern truss that is
// non-empty at α_q. It is Query over the tree's first-level items, which
// hold every indexed item: a pattern's truss lies within each of its items'
// trusses, so an item of any indexed pattern is indexed on its own.
func (t *Tree) QueryByAlpha(alphaQ float64) *QueryResult {
	var items itemset.Itemset
	if t != nil && t.root != nil {
		for _, c := range t.root.Children {
			items = append(items, c.Item)
		}
	}
	return t.Query(items, alphaQ)
}
