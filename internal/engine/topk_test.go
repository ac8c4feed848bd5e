package engine

import (
	"context"
	"slices"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/tctree"
)

// TestTopKRanking checks the ranking invariants on a generated network: the
// answer is sorted best-first, truncation returns a prefix, and every
// reported cohesion is consistent with the decomposition it was derived from.
func TestTopKRanking(t *testing.T) {
	tree := buildTestTree(t, 11)
	eng, err := New(testIndex(t, 11), Options{Workers: 4, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	alphaQ := 0.0
	_, all, err := eng.TopKWithResultContext(context.Background(), nil, alphaQ, 0)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(all) == 0 {
		t.Fatalf("expected at least one community")
	}
	for i := 1; i < len(all); i++ {
		if lessRanked(&all[i], &all[i-1]) {
			t.Fatalf("communities %d and %d are out of order", i-1, i)
		}
	}
	for i, rc := range all {
		if rc.Cohesion <= alphaQ {
			t.Fatalf("community %d has cohesion %g ≤ α_q = %g", i, rc.Cohesion, alphaQ)
		}
		var node *tctree.Node
		tree.Walk(func(n *tctree.Node) {
			if n.Pattern.Equal(rc.Pattern) {
				node = n
			}
		})
		if node == nil {
			t.Fatalf("community %d has unindexed pattern %v", i, rc.Pattern)
		}
		// The record names a component of the pattern's truss at α_q: the
		// edges of that truss on its vertices are exactly its edges.
		edges := make(graph.EdgeSet)
		for _, e := range node.Decomp.EdgesAt(alphaQ) {
			if _, ok := slices.BinarySearch(rc.Vertices, e.U); ok {
				edges.Add(e)
			}
		}
		if rc.Edges != edges.Len() || !slices.Equal(rc.Vertices, edges.Vertices()) {
			t.Fatalf("community %d = %+v is not a component of its truss at α_q", i, rc)
		}
		// Raising the threshold to the reported cohesion must remove at
		// least one of the community's edges from the pattern's truss, and
		// no lower threshold may.
		if edges.SubsetOf(node.Decomp.EdgesAt(rc.Cohesion)) {
			t.Fatalf("community %d survives intact at its own cohesion %g", i, rc.Cohesion)
		}
		if !edges.SubsetOf(node.Decomp.EdgesAt(rc.Cohesion - 1e-6)) {
			t.Fatalf("community %d loses an edge below its cohesion %g", i, rc.Cohesion)
		}
	}

	for _, k := range []int{1, 2, 3, len(all) / 2, len(all) - 1, len(all), len(all) + 5} {
		_, topK, err := eng.TopKWithResultContext(context.Background(), nil, alphaQ, k)
		if err != nil {
			t.Fatalf("TopK(k=%d): %v", k, err)
		}
		wantLen := k
		if k > len(all) {
			wantLen = len(all)
		}
		if len(topK) != wantLen {
			t.Fatalf("TopK(k=%d) returned %d communities, want %d", k, len(topK), wantLen)
		}
		// The bounded selection must be the prefix a full sort leaves.
		assertEqualCommunities(t, topK, all[:wantLen])
	}
	if got := eng.Stats().TopKQueries; got == 0 {
		t.Fatalf("TopKQueries counter not incremented")
	}
}

// TestTopKPaperExample sanity-checks top-k on the worked example of the
// paper: querying pattern p at α_q = 0.1 yields exactly the two theme
// communities of Figure 2, and k = 1 keeps the more cohesive one.
func TestTopKPaperExample(t *testing.T) {
	eng, err := New(builtIndex(t, dbnet.PaperExample()), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, all, err := eng.TopKWithResultContext(context.Background(), dbnet.PaperExampleP, 0.1, 0)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	count := 0
	for _, rc := range all {
		if rc.Pattern.Equal(dbnet.PaperExampleP) {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("pattern p contributes %d communities at α=0.1, want 2", count)
	}
	_, best, err := eng.TopKWithResultContext(context.Background(), dbnet.PaperExampleP, 0.1, 1)
	if err != nil {
		t.Fatalf("TopK(1): %v", err)
	}
	if len(best) != 1 {
		t.Fatalf("TopK(1) returned %d communities", len(best))
	}
	if best[0].Cohesion < all[len(all)-1].Cohesion {
		t.Fatalf("TopK(1) did not keep the most cohesive community")
	}
}
