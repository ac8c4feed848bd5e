package truss

import (
	"math"
	"math/rand"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// themeNetworkOf builds the theme network of pattern {1} over the given graph
// edges, in the ordered layout, with freq giving every vertex's frequency.
func themeNetworkOf(edges []graph.Edge, freq func(graph.VertexID) float64) *dbnet.ThemeNetwork {
	set := graph.NewEdgeSet(edges...)
	tn := &dbnet.ThemeNetwork{Pattern: itemset.New(1), Vertices: set.Vertices(), Edges: set.Edges()}
	for _, v := range tn.Vertices {
		tn.Freqs = append(tn.Freqs, freq(v))
	}
	return tn
}

// uniformThemeNetwork builds a theme network over the given graph edges where
// every vertex has the same frequency f for pattern {1}.
func uniformThemeNetwork(edges []graph.Edge, f float64) *dbnet.ThemeNetwork {
	return themeNetworkOf(edges, func(graph.VertexID) float64 { return f })
}

func cliqueEdges(n int) []graph.Edge {
	var out []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			out = append(out, graph.EdgeOf(graph.VertexID(u), graph.VertexID(v)))
		}
	}
	return out
}

func TestCohesionsOnPaperExample(t *testing.T) {
	nw := dbnet.PaperExample()
	tn := nw.ThemeNetwork(dbnet.PaperExampleP)
	ecos := Cohesions(tn)
	// Example 3.2: eco of edge (v1,v2) in the cluster is 0.2 (two triangles,
	// all frequencies 0.1).
	if got := ecos[graph.EdgeOf(0, 1).Key()]; !approx(got, 0.2) {
		t.Fatalf("eco(v1,v2) = %v, want 0.2", got)
	}
	// Triangle v7,v8,v9 with frequencies 0.3: each edge has cohesion 0.3.
	if got := ecos[graph.EdgeOf(6, 7).Key()]; !approx(got, 0.3) {
		t.Fatalf("eco(v7,v8) = %v, want 0.3", got)
	}
}

func TestDetectPaperExampleCommunities(t *testing.T) {
	nw := dbnet.PaperExample()
	tn := nw.ThemeNetwork(dbnet.PaperExampleP)

	// Example 3.6: for α ∈ [0, 0.2) the theme communities of p are
	// {v1..v5} and {v7,v8,v9}.
	tr := Detect(tn, 0.1)
	comms := tr.Communities()
	if len(comms) != 2 {
		t.Fatalf("expected 2 theme communities, got %d", len(comms))
	}
	sizes := []int{len(comms[0].Vertices()), len(comms[1].Vertices())}
	if sizes[0] != 5 || sizes[1] != 3 {
		t.Fatalf("community sizes = %v, want [5 3]", sizes)
	}

	// For α ∈ [0.2, 0.3) only the triangle v7,v8,v9 survives.
	tr = Detect(tn, 0.2)
	comms = tr.Communities()
	if len(comms) != 1 || len(comms[0].Vertices()) != 3 {
		t.Fatalf("at α=0.2 expected only the v7-v9 triangle, got %v", comms)
	}

	// For α ≥ 0.3 nothing survives.
	tr = Detect(tn, 0.3)
	if !tr.Empty() {
		t.Fatalf("at α=0.3 the truss should be empty, got %v", tr)
	}
}

func TestDetectEquivalenceWithKTruss(t *testing.T) {
	// With all frequencies equal to 1 and α = k-3, the pattern truss is the
	// k-truss (Section 3.2).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 10
		g := graph.New(n)
		for i := 0; i < 30; i++ {
			a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if a != b {
				g.MustAddEdge(a, b)
			}
		}
		tn := uniformThemeNetwork(g.Edges(), 1.0)
		for k := 3; k <= 5; k++ {
			want := graph.KTruss(g, k)
			// α = k-3: edges need cohesion > k-3, i.e. at least k-2 triangles.
			got := Detect(tn, float64(k-3)).Edges
			if !got.Equal(want) {
				t.Fatalf("trial %d k=%d: pattern truss %v != k-truss %v", trial, k, got.Edges(), want.Edges())
			}
		}
	}
}

func TestDetectEmptyThemeNetwork(t *testing.T) {
	tn := &dbnet.ThemeNetwork{Pattern: itemset.New(9)}
	tr := Detect(tn, 0)
	if !tr.Empty() || tr.NumVertices() != 0 || tr.NumEdges() != 0 {
		t.Fatalf("truss of empty theme network should be empty")
	}
	if tr.Communities() != nil {
		t.Fatalf("communities of empty truss should be nil")
	}
	if len(tr.Vertices()) != 0 {
		t.Fatalf("vertices of empty truss should be empty")
	}
}

func TestDetectRemovesLowCohesionFringe(t *testing.T) {
	// A triangle {0,1,2} with a pendant path 2-3-4: the pendant edges have no
	// triangles and must always be removed, even at α = 0.
	edges := []graph.Edge{
		graph.EdgeOf(0, 1), graph.EdgeOf(0, 2), graph.EdgeOf(1, 2),
		graph.EdgeOf(2, 3), graph.EdgeOf(3, 4),
	}
	tn := uniformThemeNetwork(edges, 0.5)
	tr := Detect(tn, 0)
	if tr.NumEdges() != 3 {
		t.Fatalf("expected the triangle only, got %v", tr.Edges.Edges())
	}
	if tr.NumVertices() != 3 {
		t.Fatalf("expected 3 vertices, got %d", tr.NumVertices())
	}
	// At α just below the triangle cohesion (0.5) the triangle survives; at
	// 0.5 it does not (strict inequality).
	if Detect(tn, 0.49).NumEdges() != 3 {
		t.Fatalf("triangle should survive α=0.49")
	}
	if !Detect(tn, 0.5).Empty() {
		t.Fatalf("triangle must not survive α=0.5 (cohesion is not strictly greater)")
	}
}

func TestCascadingRemoval(t *testing.T) {
	// Two triangles sharing an edge: (0,1,2) and (1,2,3), all freq 1.
	// Edge (1,2) is in 2 triangles (cohesion 2), the others in 1 (cohesion 1).
	// At α=1: the four outer edges are unqualified; removing them destroys the
	// triangles of (1,2), so everything must cascade away.
	edges := []graph.Edge{
		graph.EdgeOf(0, 1), graph.EdgeOf(0, 2), graph.EdgeOf(1, 2),
		graph.EdgeOf(1, 3), graph.EdgeOf(2, 3),
	}
	tn := uniformThemeNetwork(edges, 1.0)
	if got := Detect(tn, 1.0); !got.Empty() {
		t.Fatalf("cascade failed: %v", got.Edges.Edges())
	}
	if got := Detect(tn, 0.5); got.NumEdges() != 5 {
		t.Fatalf("at α=0.5 all 5 edges survive, got %d", got.NumEdges())
	}
}

func TestMixedFrequenciesCohesion(t *testing.T) {
	// Triangle with frequencies 0.2, 0.5, 0.9: every edge cohesion is
	// min(0.2,0.5,0.9) = 0.2.
	edges := []graph.Edge{graph.EdgeOf(0, 1), graph.EdgeOf(0, 2), graph.EdgeOf(1, 2)}
	freqs := []float64{0.2, 0.5, 0.9}
	tn := themeNetworkOf(edges, func(v graph.VertexID) float64 { return freqs[v] })
	for _, e := range edges {
		if got := Cohesions(tn)[e.Key()]; !approx(got, 0.2) {
			t.Fatalf("eco(%v) = %v, want 0.2", e, got)
		}
	}
	if Detect(tn, 0.19).NumEdges() != 3 {
		t.Fatalf("triangle should survive α=0.19")
	}
	if !Detect(tn, 0.2).Empty() {
		t.Fatalf("triangle should not survive α=0.2")
	}
}

func TestTrussAccessors(t *testing.T) {
	var nilTruss *Truss
	if !nilTruss.Empty() || nilTruss.NumEdges() != 0 || nilTruss.NumVertices() != 0 {
		t.Fatalf("nil truss accessors broken")
	}
	if nilTruss.String() != "truss.Truss(nil)" {
		t.Fatalf("nil truss String = %q", nilTruss.String())
	}
	tn := uniformThemeNetwork(cliqueEdges(4), 1.0)
	tr := Detect(tn, 0)
	if tr.String() == "" || tr.NumVertices() != 4 || tr.NumEdges() != 6 {
		t.Fatalf("truss accessors: %v", tr)
	}
	vs := tr.Vertices()
	if len(vs) != 4 || vs[0] != 0 || vs[3] != 3 {
		t.Fatalf("Vertices = %v", vs)
	}
}

func TestDecomposeSimple(t *testing.T) {
	// K4 with unit frequencies: every edge has cohesion 2; single level at α=2.
	tn := uniformThemeNetwork(cliqueEdges(4), 1.0)
	d := Decompose(tn)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(d.Levels) != 1 || !approx(d.Levels[0].Alpha, 2.0) || len(d.Levels[0].Removed) != 6 {
		t.Fatalf("decomposition = %v", d)
	}
	if !approx(d.MaxAlpha(), 2.0) {
		t.Fatalf("MaxAlpha = %v", d.MaxAlpha())
	}
	if d.NumEdges() != 6 || d.Empty() {
		t.Fatalf("NumEdges = %d", d.NumEdges())
	}
	if got := d.TrussAt(1.9); got.NumEdges() != 6 {
		t.Fatalf("TrussAt(1.9) = %d edges", got.NumEdges())
	}
	if got := d.TrussAt(2.0); !got.Empty() {
		t.Fatalf("TrussAt(2.0) should be empty")
	}
}

func TestDecomposePaperExample(t *testing.T) {
	nw := dbnet.PaperExample()
	tn := nw.ThemeNetwork(dbnet.PaperExampleP)
	d := Decompose(tn)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Levels: the 5-vertex cluster drops at 0.2, the triangle at 0.3.
	if len(d.Levels) != 2 {
		t.Fatalf("levels = %v", d.Thresholds())
	}
	if !approx(d.Levels[0].Alpha, 0.2) || !approx(d.Levels[1].Alpha, 0.3) {
		t.Fatalf("thresholds = %v", d.Thresholds())
	}
	if !approx(d.MaxAlpha(), 0.3) {
		t.Fatalf("MaxAlpha = %v", d.MaxAlpha())
	}
}

// Reconstruction from the decomposition must agree with running MPTD directly
// for any α (Theorem 6.1 / Equation 1).
func TestDecomposeReconstructionMatchesDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		tn := randomThemeNetwork(rng, 14, 40)
		d := Decompose(tn)
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: Validate: %v", trial, err)
		}
		alphas := []float64{0, 0.05, 0.13, 0.4, 0.77, 1.3, 2.5}
		alphas = append(alphas, d.Thresholds()...)
		for _, a := range alphas {
			want := Detect(tn, a).Edges
			got := d.EdgesAt(a)
			if !got.Equal(want) {
				t.Fatalf("trial %d α=%v: reconstruction %d edges, direct %d edges", trial, a, got.Len(), want.Len())
			}
		}
		// Above MaxAlpha everything is empty.
		if got := d.EdgesAt(d.MaxAlpha()); got.Len() != 0 {
			t.Fatalf("trial %d: truss above MaxAlpha not empty", trial)
		}
	}
}

// The decomposition is nested: TrussAt(α2) ⊆ TrussAt(α1) whenever α1 ≤ α2.
func TestDecomposeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		tn := randomThemeNetwork(rng, 12, 30)
		d := Decompose(tn)
		prev := d.EdgesAt(0)
		for _, a := range d.Thresholds() {
			cur := d.EdgesAt(a)
			if !cur.SubsetOf(prev) {
				t.Fatalf("trial %d: truss at %v not nested", trial, a)
			}
			if cur.Len() >= prev.Len() && prev.Len() > 0 {
				t.Fatalf("trial %d: truss did not shrink at threshold %v", trial, a)
			}
			prev = cur
		}
	}
}

func TestDecompositionValidateDetectsCorruption(t *testing.T) {
	d := &Decomposition{Levels: []Level{{Alpha: 0.5, Removed: []graph.Edge{graph.EdgeOf(0, 1)}}}}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	bad := &Decomposition{Levels: []Level{{Alpha: 0.5, Removed: nil}}}
	if err := bad.Validate(); err == nil {
		t.Fatalf("empty level should be rejected")
	}
	bad = &Decomposition{Levels: []Level{
		{Alpha: 0.5, Removed: []graph.Edge{graph.EdgeOf(0, 1)}},
		{Alpha: 0.5, Removed: []graph.Edge{graph.EdgeOf(1, 2)}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatalf("non-ascending thresholds should be rejected")
	}
	bad = &Decomposition{Levels: []Level{
		{Alpha: 0.5, Removed: []graph.Edge{graph.EdgeOf(0, 1)}},
		{Alpha: 0.7, Removed: []graph.Edge{graph.EdgeOf(0, 1)}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatalf("duplicate edges across levels should be rejected")
	}
	bad = &Decomposition{Vertices: []graph.VertexID{0, 1}, Freqs: []float64{1}, Levels: d.Levels}
	if err := bad.Validate(); err == nil {
		t.Fatalf("a vertex without a frequency should be rejected")
	}
	bad = &Decomposition{Vertices: []graph.VertexID{1, 0}, Freqs: []float64{1, 1}, Levels: d.Levels}
	if err := bad.Validate(); err == nil {
		t.Fatalf("vertices out of order should be rejected")
	}
	var nilD *Decomposition
	if err := nilD.Validate(); err != nil {
		t.Fatalf("nil decomposition should validate")
	}
	if !nilD.Empty() || nilD.NumEdges() != 0 || nilD.Thresholds() != nil {
		t.Fatalf("nil decomposition accessors broken")
	}
	if nilD.EdgesAt(0).Len() != 0 {
		t.Fatalf("nil decomposition EdgesAt should be empty")
	}
	if nilD.String() != "truss.Decomposition(nil)" {
		t.Fatalf("nil decomposition String = %q", nilD.String())
	}
}

// randomThemeNetwork builds a theme network over a random graph with random
// frequencies drawn from {0.1, ..., 1.0}.
func randomThemeNetwork(rng *rand.Rand, n, m int) *dbnet.ThemeNetwork {
	g := graph.New(n)
	for i := 0; i < m; i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			g.MustAddEdge(a, b)
		}
	}
	return themeNetworkOf(g.Edges(), func(graph.VertexID) float64 { return float64(1+rng.Intn(10)) / 10 })
}

// A hand-built theme network that breaks the ordered layout must be refused
// loudly, not decomposed into garbage.
func TestMalformedThemeNetworkPanics(t *testing.T) {
	ok := uniformThemeNetwork(cliqueEdges(4), 1)
	for name, breakIt := range map[string]func(tn *dbnet.ThemeNetwork){
		"edges out of order":      func(tn *dbnet.ThemeNetwork) { tn.Edges[0], tn.Edges[1] = tn.Edges[1], tn.Edges[0] },
		"duplicate edge":          func(tn *dbnet.ThemeNetwork) { tn.Edges[1] = tn.Edges[0] },
		"endpoint not a vertex":   func(tn *dbnet.ThemeNetwork) { tn.Vertices = tn.Vertices[:3]; tn.Freqs = tn.Freqs[:3] },
		"lower endpoint unknown":  func(tn *dbnet.ThemeNetwork) { tn.Vertices = tn.Vertices[1:]; tn.Freqs = tn.Freqs[1:] },
		"frequencies not aligned": func(tn *dbnet.ThemeNetwork) { tn.Freqs = tn.Freqs[:2] },
		"vertices out of order":   func(tn *dbnet.ThemeNetwork) { tn.Vertices[0], tn.Vertices[1] = tn.Vertices[1], tn.Vertices[0] },
	} {
		tn := &dbnet.ThemeNetwork{
			Pattern:  ok.Pattern,
			Vertices: append([]graph.VertexID(nil), ok.Vertices...),
			Freqs:    append([]float64(nil), ok.Freqs...),
			Edges:    append([]graph.Edge(nil), ok.Edges...),
		}
		breakIt(tn)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Decompose accepted the theme network", name)
				}
			}()
			Decompose(tn)
		}()
	}
}
