package graph

import (
	"math"
	"math/rand"
	"testing"
)

// buildTriangleChain returns a graph of two triangles sharing vertex 2 plus an
// isolated vertex 5: edges (0,1),(0,2),(1,2),(2,3),(2,4),(3,4).
func buildTriangleChain() *Graph {
	g := New(6)
	for _, e := range [][2]VertexID{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

func TestEdgeOf(t *testing.T) {
	e := EdgeOf(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("EdgeOf(5,2) = %v, want (2,5)", e)
	}
	if EdgeFromKey(e.Key()) != e {
		t.Fatalf("Key round trip failed")
	}
	if e.String() != "(2,5)" {
		t.Fatalf("String = %q", e.String())
	}
}

// Ids are 32-bit: one outside [0, MaxInt32] is refused, never wrapped onto
// another vertex.
func TestCheckedIds(t *testing.T) {
	for _, v := range []int{0, 1, math.MaxInt32} {
		if id, err := Vertex(v); err != nil || int(id) != v {
			t.Errorf("Vertex(%d) = (%d, %v)", v, id, err)
		}
	}
	for _, v := range []int{-1, math.MaxInt32 + 1, 1 << 32, math.MinInt} {
		if _, err := Vertex(v); err == nil {
			t.Errorf("Vertex(%d) accepted an id outside the range", v)
		}
	}
	if _, err := Vertex(1 << 32); err == nil || err.Error() != "vertex id 4294967296 outside [0, 2147483647]" {
		t.Errorf("Vertex(1<<32) error = %v", err)
	}
	for field, ok := range map[string]bool{"7": true, "2147483647": true, "x": false, "": false, "-1": false, "4294967297": false} {
		if _, err := ParseVertex(field); (err == nil) != ok {
			t.Errorf("ParseVertex(%q) error = %v, want ok %v", field, err, ok)
		}
	}
	if e, err := CheckedEdge(5, 2); err != nil || e != EdgeOf(2, 5) {
		t.Errorf("CheckedEdge(5, 2) = (%v, %v)", e, err)
	}
	for _, uv := range [][2]int{{3, 3}, {0, 1 << 32}, {1 << 32, 1}, {-1, 0}} {
		if _, err := CheckedEdge(uv[0], uv[1]); err == nil {
			t.Errorf("CheckedEdge(%d, %d) accepted", uv[0], uv[1])
		}
	}
	for n, ok := range map[int]bool{0: true, MaxVertices: true, MaxVertices + 1: false, -1: false} {
		if err := CheckVertexCount(n); (err == nil) != ok {
			t.Errorf("CheckVertexCount(%d) = %v, want ok %v", n, err, ok)
		}
	}
}

func TestEdgeOfPanicsOnSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("EdgeOf(1,1) should panic")
		}
	}()
	EdgeOf(1, 1)
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Errorf("self-loop should be rejected")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Errorf("out-of-range vertex should be rejected")
	}
	if err := g.AddEdge(-1, 1); err == nil {
		t.Errorf("negative vertex should be rejected")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatalf("duplicate AddEdge should be a no-op, got %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestNewPanicsOnNegativeSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestBasicAccessors(t *testing.T) {
	g := buildTriangleChain()
	if g.NumVertices() != 6 || g.NumEdges() != 6 {
		t.Fatalf("size = (%d,%d), want (6,6)", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Errorf("HasEdge(0,1) should be true in both orientations")
	}
	if g.HasEdge(0, 3) || g.HasEdge(5, 5) || g.HasEdge(0, 99) {
		t.Errorf("HasEdge false positives")
	}
	if g.Degree(2) != 4 || g.Degree(5) != 0 || g.Degree(99) != 0 {
		t.Errorf("Degree wrong: %d %d", g.Degree(2), g.Degree(5))
	}
	nb := g.Neighbors(2)
	want := []VertexID{0, 1, 3, 4}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(2) = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
	edges := g.Edges()
	if len(edges) != 6 {
		t.Fatalf("Edges() returned %d edges", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1].U > edges[i].U || (edges[i-1].U == edges[i].U && edges[i-1].V >= edges[i].V) {
			t.Fatalf("Edges() not sorted: %v", edges)
		}
	}
}

func TestBFSEdges(t *testing.T) {
	g := buildTriangleChain()
	all := g.BFSEdges(0, 0)
	if len(all) != 6 {
		t.Fatalf("BFS from 0 should reach all 6 edges, got %d", len(all))
	}
	limited := g.BFSEdges(0, 3)
	if len(limited) != 3 {
		t.Fatalf("BFSEdges with cap 3 returned %d edges", len(limited))
	}
	// Sampled edges must be unique.
	seen := map[uint64]bool{}
	for _, e := range all {
		if seen[e.Key()] {
			t.Fatalf("duplicate edge %v in BFS output", e)
		}
		seen[e.Key()] = true
	}
	if got := g.BFSEdges(99, 10); got != nil {
		t.Fatalf("BFS from invalid seed = %v", got)
	}
	if got := g.BFSEdges(5, 10); len(got) != 0 {
		t.Fatalf("BFS from isolated vertex = %v", got)
	}
}

func TestIntersectSorted(t *testing.T) {
	got := IntersectSorted([]VertexID{1, 3, 5, 7}, []VertexID{3, 4, 5, 6, 7})
	want := []VertexID{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("IntersectSorted = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IntersectSorted = %v, want %v", got, want)
		}
	}
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(EdgeOf(0, 1), EdgeOf(1, 2))
	if s.Len() != 2 || !s.Contains(EdgeOf(1, 0)) {
		t.Fatalf("EdgeSet basics broken: %v", s)
	}
	s.Add(EdgeOf(2, 3))
	s.Remove(EdgeOf(0, 1))
	if s.Len() != 2 || s.Contains(EdgeOf(0, 1)) {
		t.Fatalf("Add/Remove broken")
	}
	vs := s.Vertices()
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("Vertices = %v", vs)
	}
	edges := s.Edges()
	if len(edges) != 2 || edges[0] != EdgeOf(1, 2) {
		t.Fatalf("Edges = %v", edges)
	}
}

func TestEdgeSetAlgebra(t *testing.T) {
	a := NewEdgeSet(EdgeOf(0, 1), EdgeOf(1, 2), EdgeOf(2, 3))
	b := NewEdgeSet(EdgeOf(1, 2), EdgeOf(3, 4))
	if got := a.Intersect(b); got.Len() != 1 || !got.Contains(EdgeOf(1, 2)) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Union(b); got.Len() != 4 {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Minus(b); got.Len() != 2 || got.Contains(EdgeOf(1, 2)) {
		t.Fatalf("Minus = %v", got)
	}
	if !a.Clone().Equal(a) {
		t.Fatalf("Clone/Equal broken")
	}
	if a.Equal(b) {
		t.Fatalf("distinct sets reported equal")
	}
	if !a.Intersect(b).SubsetOf(a) || !a.Intersect(b).SubsetOf(b) {
		t.Fatalf("SubsetOf broken")
	}
	if a.SubsetOf(b) {
		t.Fatalf("SubsetOf false positive")
	}
}

func TestEdgeSetConnectedComponents(t *testing.T) {
	s := NewEdgeSet(EdgeOf(0, 1), EdgeOf(1, 2), EdgeOf(5, 6))
	comps := s.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0].Len() != 2 || comps[1].Len() != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
	if got := NewEdgeSet().ConnectedComponents(); got != nil {
		t.Fatalf("components of empty edge set = %v", got)
	}
}

func TestKTrussOnCliqueAndChain(t *testing.T) {
	// A 4-clique is a 4-truss (every edge in 2 triangles).
	clique := New(4)
	for u := VertexID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			clique.MustAddEdge(u, v)
		}
	}
	if got := KTruss(clique, 4); got.Len() != 6 {
		t.Fatalf("4-truss of K4 has %d edges, want 6", got.Len())
	}
	if got := KTruss(clique, 5); got.Len() != 0 {
		t.Fatalf("5-truss of K4 should be empty, got %d edges", got.Len())
	}
	// Two triangles sharing a vertex: 3-truss keeps both, 4-truss is empty.
	g := buildTriangleChain()
	if got := KTruss(g, 3); got.Len() != 6 {
		t.Fatalf("3-truss = %d edges, want 6", got.Len())
	}
	if got := KTruss(g, 4); got.Len() != 0 {
		t.Fatalf("4-truss = %d edges, want 0", got.Len())
	}
	if got := KTruss(g, 2); got.Len() != g.NumEdges() {
		t.Fatalf("2-truss should keep all edges")
	}
}

func TestKTrussEdgesAreInEnoughTriangles(t *testing.T) {
	// Property check on random graphs: every edge of the k-truss is in at
	// least k-2 triangles inside the truss.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 12
		g := New(n)
		for i := 0; i < 40; i++ {
			a, b := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			if a != b {
				g.MustAddEdge(a, b)
			}
		}
		for k := 3; k <= 5; k++ {
			truss := KTruss(g, k)
			adj := truss.Adjacency()
			for _, e := range truss.Edges() {
				if got := len(IntersectSorted(adj[e.U], adj[e.V])); got < k-2 {
					t.Fatalf("edge %v in %d-truss has only %d triangles", e, k, got)
				}
			}
			// Monotonicity: (k+1)-truss ⊆ k-truss.
			if !KTruss(g, k+1).SubsetOf(truss) {
				t.Fatalf("truss not monotone at k=%d", k)
			}
		}
	}
}
