package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"themecomm/internal/core"
	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// vertexOracle is what SearchVertex(v, q, α) must answer, from a network
// mined from scratch by core.TCFI at α: every community containing v whose
// theme is a sub-pattern of q (nil: every theme), shorter themes first, then
// by theme. A vertex belongs to at most one community per theme — the
// communities of a truss are its connected components — so the order is total.
func vertexOracle(mined *core.Result, v graph.VertexID, q itemset.Itemset) []flatCommunity {
	var comms []core.Community
	for _, c := range mined.Communities() {
		if q != nil && !c.Pattern.SubsetOf(q) {
			continue
		}
		if _, ok := slices.BinarySearch(c.Vertices(), v); ok {
			comms = append(comms, c)
		}
	}
	slices.SortFunc(comms, func(a, b core.Community) int {
		if a.Pattern.Len() != b.Pattern.Len() {
			return a.Pattern.Len() - b.Pattern.Len()
		}
		return itemset.Compare(a.Pattern, b.Pattern)
	})
	out := make([]flatCommunity, len(comms))
	for i, c := range comms {
		out[i] = flatCommunity{pattern: c.Pattern.String(), vertices: fmt.Sprint(c.Vertices()), edges: c.Edges.Len()}
	}
	return out
}

// searchEngines serves nw's index eagerly and lazily from its index
// directory.
func searchEngines(t *testing.T, nw *dbnet.Network) map[string]*Engine {
	t.Helper()
	built := builtIndex(t, nw)
	eager, err := New(built, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dir := t.TempDir()
	if _, err := built.Write(dir); err != nil {
		t.Fatalf("Write: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	lazy, err := NewLazy(idx, Options{MaxResidentShards: 2})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	return map[string]*Engine{"eager": eager, "lazy": lazy}
}

// mustSearchOracle runs SearchVertex and requires its answer to be the TCFI
// oracle's, record for record.
func mustSearchOracle(t *testing.T, eng *Engine, mined *core.Result, v graph.VertexID, q itemset.Itemset) {
	t.Helper()
	got, err := eng.SearchVertex(context.Background(), v, q, mined.Alpha)
	if err != nil {
		t.Fatalf("SearchVertex(%d, %v): %v", v, q, err)
	}
	want := vertexOracle(mined, v, q)
	if len(got) != len(want) {
		t.Fatalf("SearchVertex(%d, %v, %v) found %d communities, TCFI %d", v, q, mined.Alpha, len(got), len(want))
	}
	for i, w := range want {
		if g := flatten(got[i]); g != w {
			t.Fatalf("SearchVertex(%d, %v, %v) community %d = %+v, TCFI has %+v", v, q, mined.Alpha, i, g, w)
		}
	}
}

func TestSearchVertexOnPaperExample(t *testing.T) {
	nw := dbnet.PaperExample()
	p := dbnet.PaperExampleP
	mined := core.TCFI(nw, core.Options{Alpha: 0.1})
	for name, eng := range searchEngines(t, nw) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			// Vertex v6 (5) has frequency 0 for p: no community.
			if comms, err := eng.SearchVertex(ctx, 5, p, 0.1); err != nil || len(comms) != 0 {
				t.Fatalf("v6 should belong to no p-community, got %v (%v)", comms, err)
			}
			// Vertex v7 (6) belongs to the triangle community.
			if comms, err := eng.SearchVertex(ctx, 6, p, 0.1); err != nil || len(comms) != 1 || len(comms[0].Vertices) != 3 {
				t.Fatalf("community of v7 wrong: %v (%v)", comms, err)
			}
			// Every vertex, restricted or not, is the TCFI oracle's answer; an
			// unknown vertex belongs to nothing.
			for v := graph.VertexID(0); int(v) < nw.NumVertices(); v++ {
				mustSearchOracle(t, eng, mined, v, nil)
				mustSearchOracle(t, eng, mined, v, p)
			}
			mustSearchOracle(t, eng, mined, 99, nil)
		})
	}
}

// TestSearchVertexV1PCommunity checks that vertex v1 (0) belongs to the
// 5-vertex community of pattern p at α = 0.1, whether the search is
// restricted to p or not.
func TestSearchVertexV1PCommunity(t *testing.T) {
	p := dbnet.PaperExampleP
	for name, eng := range searchEngines(t, dbnet.PaperExample()) {
		t.Run(name, func(t *testing.T) {
			for _, q := range []itemset.Itemset{p, nil} {
				comms, err := eng.SearchVertex(context.Background(), 0, q, 0.1)
				if err != nil {
					t.Fatalf("SearchVertex: %v", err)
				}
				i := slices.IndexFunc(comms, func(c truss.Community) bool { return c.Pattern.Equal(p) })
				if i < 0 || len(comms[i].Vertices) != 5 {
					t.Fatalf("q=%v: v1's p-community wrong: %v", q, comms)
				}
				if q != nil && len(comms) != 1 {
					t.Fatalf("expected exactly one community for v1 and pattern p, got %d", len(comms))
				}
			}
		})
	}
}

func TestSearchVertexAgreesWithMining(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	nw := randomNetwork(rng, 16, 36, 4, 4)
	// Per vertex, a search restricted to a random half of the items plus an
	// unindexed one, beside the unrestricted search.
	restricted := make([]itemset.Itemset, nw.NumVertices())
	for v := range restricted {
		restricted[v] = itemset.New(999)
		for _, it := range nw.Items() {
			if rng.Intn(2) == 0 {
				restricted[v] = restricted[v].Add(it)
			}
		}
	}
	for _, alpha := range []float64{0, 0.2} {
		mined := core.TCFI(nw, core.Options{Alpha: alpha})
		if mined.NumPatterns() == 0 {
			t.Fatalf("α=%v: TCFI mined nothing; pick another seed", alpha)
		}
		for name, eng := range searchEngines(t, nw) {
			t.Run(fmt.Sprintf("%s/alpha=%v", name, alpha), func(t *testing.T) {
				for v, q := range restricted {
					mustSearchOracle(t, eng, mined, graph.VertexID(v), nil)
					mustSearchOracle(t, eng, mined, graph.VertexID(v), q)
				}
				mustSearchOracle(t, eng, mined, graph.VertexID(nw.NumVertices()+5), nil)
			})
		}
	}
}
