package truss

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// oracle_test.go checks the peeler against the definitions it implements,
// sharing no code with it: oracleTruss recomputes every surviving edge's
// cohesion from Definition 3.1 and deletes the edges at or below α, round
// after round, until none is left to delete — the greatest fixed point that
// Definition 3.3 calls the maximal pattern truss — and checkAgainstOracle
// applies Theorem 6.1 on top of it.

// oracleCohesion is Definition 3.1 on the subgraph alive: the sum, over the
// triangles of alive that contain (u, v), of the smallest of the three
// frequencies.
func oracleCohesion(tn *dbnet.ThemeNetwork, alive map[graph.Edge]bool, e graph.Edge) float64 {
	eco := 0.0
	for _, w := range tn.Vertices {
		if w != e.U && w != e.V && alive[graph.EdgeOf(e.U, w)] && alive[graph.EdgeOf(e.V, w)] {
			eco += math.Min(tn.Frequency(w), math.Min(tn.Frequency(e.U), tn.Frequency(e.V)))
		}
	}
	return eco
}

// oracleTruss shrinks alive to its maximal pattern truss for alpha and
// returns the smallest cohesion left (meaningless when nothing is left).
func oracleTruss(tn *dbnet.ThemeNetwork, alive map[graph.Edge]bool, alpha float64) float64 {
	for {
		lowest := math.Inf(1)
		var doomed []graph.Edge
		for e := range alive {
			eco := oracleCohesion(tn, alive, e)
			if eco <= alpha+cohesionTolerance {
				doomed = append(doomed, e)
			}
			lowest = math.Min(lowest, eco)
		}
		if len(doomed) == 0 {
			return lowest
		}
		for _, e := range doomed {
			delete(alive, e)
		}
	}
}

func allEdges(tn *dbnet.ThemeNetwork) map[graph.Edge]bool {
	alive := make(map[graph.Edge]bool, len(tn.Edges))
	for _, e := range tn.Edges {
		alive[e] = true
	}
	return alive
}

// checkAgainstOracle compares Detect at every given α, and Decompose level by
// level, with the oracle.
func checkAgainstOracle(t *testing.T, label string, tn *dbnet.ThemeNetwork, alphas []float64) {
	t.Helper()
	sameEdges := func(what string, got []graph.Edge, want map[graph.Edge]bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d edges, the oracle %d", label, what, len(got), len(want))
		}
		for _, e := range got {
			if !want[e] {
				t.Fatalf("%s: %s holds %v, the oracle does not", label, what, e)
			}
		}
	}
	for _, alpha := range alphas {
		want := allEdges(tn)
		oracleTruss(tn, want, alpha)
		got := Detect(tn, alpha)
		sameEdges(fmt.Sprintf("Detect(α=%v)", alpha), got.Edges.Edges(), want)
		for v, f := range got.Freq {
			if f != tn.Frequency(v) {
				t.Fatalf("%s: Detect(α=%v) reports f_%d = %v, the theme network %v", label, alpha, v, f, tn.Frequency(v))
			}
		}
	}

	// Theorem 6.1: from C*_p(0), the next threshold is the smallest cohesion
	// left, and the level is what peeling at that threshold removes.
	d := Decompose(tn)
	if err := d.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	alive := allEdges(tn)
	beta := oracleTruss(tn, alive, 0)
	for i, level := range d.Levels {
		if len(alive) == 0 {
			t.Fatalf("%s: Decompose has %d levels, the oracle %d", label, len(d.Levels), i)
		}
		if math.Abs(level.Alpha-beta) > 1e-9 {
			t.Fatalf("%s: level %d threshold %v, the oracle %v", label, i, level.Alpha, beta)
		}
		before := make(map[graph.Edge]bool, len(alive))
		for e := range alive {
			before[e] = true
		}
		beta = oracleTruss(tn, alive, beta)
		for e := range alive {
			delete(before, e)
		}
		sameEdges(fmt.Sprintf("level %d (α=%v)", i, level.Alpha), level.Removed, before)
	}
	if len(alive) != 0 {
		t.Fatalf("%s: Decompose stops after %d levels with %d edges the oracle still holds", label, len(d.Levels), len(alive))
	}
}

// TestPeelerMatchesOracleOnRandomNetworks draws frequencies from a handful of
// values, so equal cohesions — and with them ties in the peel order — are the
// rule, not the exception.
func TestPeelerMatchesOracleOnRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(12)
		tn := randomThemeNetwork(rng, n, n*(2+rng.Intn(3)))
		checkAgainstOracle(t, fmt.Sprintf("trial %d", trial), tn, []float64{0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.3, 2.1})
	}
}

// TestPeelerMatchesOracleAtTheTolerance pins the comparison rule at its edge:
// a cohesion within cohesionTolerance above α counts as "at most α", one
// clearly beyond it does not, and an edge that only falls to α once a
// neighbour has been removed goes in the same level.
func TestPeelerMatchesOracleAtTheTolerance(t *testing.T) {
	// Two 4-cliques sharing the edge (0,1), every frequency 0.25: the shared
	// edge has cohesion 1.0 (four triangles), every other edge 0.5.
	var edges []graph.Edge
	for _, clique := range [][]graph.VertexID{{0, 1, 2, 3}, {0, 1, 4, 5}} {
		for i, u := range clique {
			for _, v := range clique[i+1:] {
				edges = append(edges, graph.EdgeOf(u, v))
			}
		}
	}
	tn := uniformThemeNetwork(edges, 0.25)
	within, beyond := 0.5-cohesionTolerance/2, 0.5-2*cohesionTolerance
	checkAgainstOracle(t, "two cliques", tn, []float64{0, within, 0.5, beyond, 0.5 + cohesionTolerance/2, 1})
	if got := Detect(tn, within); !got.Empty() {
		t.Fatalf("α = 0.5 − tolerance/2: %d edges survive, want none (0.5 ≤ α + tolerance; the shared edge follows)", got.NumEdges())
	}
	if got := Detect(tn, beyond); got.NumEdges() != 11 {
		t.Fatalf("α = 0.5 − 2·tolerance: %d edges survive, want all 11", got.NumEdges())
	}
	if d := Decompose(tn); len(d.Levels) != 1 || d.Levels[0].Alpha != 0.5 {
		t.Fatalf("Decompose = %v, want one level at 0.5 holding the cascade", d)
	}
}

// TestPeelerMatchesOracleOnGeneratedDatasets runs the comparison on theme
// networks induced from the dataset analogues: the shapes Build decomposes.
func TestPeelerMatchesOracleOnGeneratedDatasets(t *testing.T) {
	for _, name := range []string{"BK", "GW", "AMINER", "SYN"} {
		ds, err := gen.ByName(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		items := ds.Network.Items()
		// The oracle is quadratic: spend a fixed budget of edges per dataset.
		checked, budget := 0, 3000
		for i := 0; i < items.Len() && budget > 0; i++ {
			tn := ds.Network.ThemeNetwork(itemset.New(items[i]))
			if tn.NumEdges() < 3 || tn.NumEdges() > 2000 {
				continue
			}
			checked++
			budget -= tn.NumEdges()
			checkAgainstOracle(t, fmt.Sprintf("%s item %d", name, items[i]), tn, []float64{0, 0.05, 0.2, 0.6})
			// A two-item theme inside it, the way the miners restrict one.
			for _, j := range items[i+1:] {
				if sub := ds.Network.ThemeNetworkWithin(itemset.New(items[i], j), graph.NewEdgeSet(tn.Edges...)); sub.NumEdges() >= 3 {
					checkAgainstOracle(t, fmt.Sprintf("%s items %d,%d", name, items[i], j), sub, []float64{0, 0.1})
					break
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no theme network to check", name)
		}
	}
}
