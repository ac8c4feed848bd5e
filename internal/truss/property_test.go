package truss

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// property_test.go checks the paper's central theorems with testing/quick on
// randomly generated database networks (not just hand-built theme networks):
// Theorem 5.1 (graph anti-monotonicity), Proposition 5.2 (pattern
// anti-monotonicity), Proposition 5.3 (graph intersection), and Theorem 6.1
// (nested decomposition thresholds).

// networkCase bundles one random database network with a nested pattern pair
// p1 ⊆ p2 and a threshold α.
type networkCase struct {
	nw     *dbnet.Network
	p1, p2 itemset.Itemset
	alpha  float64
}

func generateCase(rng *rand.Rand) networkCase {
	n := 8 + rng.Intn(10)
	m := 2 * n
	items := 4
	nw := dbnet.New(n)
	for i := 0; i < m; i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			nw.MustAddEdge(a, b)
		}
	}
	for v := 0; v < n; v++ {
		ntx := 1 + rng.Intn(4)
		for i := 0; i < ntx; i++ {
			l := 1 + rng.Intn(3)
			tx := make([]itemset.Item, l)
			for j := range tx {
				tx[j] = itemset.Item(rng.Intn(items))
			}
			if err := nw.AddTransaction(graph.VertexID(v), itemset.New(tx...)); err != nil {
				panic(err)
			}
		}
	}
	// p2 is a random pattern of length 2-3; p1 a random non-empty subset.
	p2 := itemset.New(itemset.Item(rng.Intn(items)), itemset.Item(rng.Intn(items)), itemset.Item(rng.Intn(items)))
	var p1 itemset.Itemset
	for _, it := range p2 {
		if rng.Intn(2) == 0 {
			p1 = p1.Add(it)
		}
	}
	if p1.Len() == 0 {
		p1 = itemset.New(p2[0])
	}
	return networkCase{nw: nw, p1: p1, p2: p2, alpha: float64(rng.Intn(8)) / 10}
}

func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{
		MaxCount: maxCount,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(generateCase(rng))
		},
	}
}

// Theorem 5.1: C*_{p2}(α) ⊆ C*_{p1}(α) whenever p1 ⊆ p2.
func TestQuickGraphAntiMonotonicity(t *testing.T) {
	f := func(c networkCase) bool {
		t1 := Detect(c.nw.ThemeNetwork(c.p1), c.alpha)
		t2 := Detect(c.nw.ThemeNetwork(c.p2), c.alpha)
		return t2.Edges.SubsetOf(t1.Edges)
	}
	if err := quick.Check(f, quickConfig(60)); err != nil {
		t.Error(err)
	}
}

// Proposition 5.2: if the truss of a super-pattern is non-empty, the truss of
// every sub-pattern is non-empty.
func TestQuickPatternAntiMonotonicity(t *testing.T) {
	f := func(c networkCase) bool {
		t1 := Detect(c.nw.ThemeNetwork(c.p1), c.alpha)
		t2 := Detect(c.nw.ThemeNetwork(c.p2), c.alpha)
		if !t2.Empty() && t1.Empty() {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(60)); err != nil {
		t.Error(err)
	}
}

// Proposition 5.3: C*_{p1∪p2}(α) ⊆ C*_{p1}(α) ∩ C*_{p2}(α).
func TestQuickGraphIntersectionProperty(t *testing.T) {
	f := func(c networkCase) bool {
		union := c.p1.Union(c.p2)
		tu := Detect(c.nw.ThemeNetwork(union), c.alpha)
		t1 := Detect(c.nw.ThemeNetwork(c.p1), c.alpha)
		t2 := Detect(c.nw.ThemeNetwork(c.p2), c.alpha)
		return tu.Edges.SubsetOf(t1.Edges.Intersect(t2.Edges))
	}
	if err := quick.Check(f, quickConfig(60)); err != nil {
		t.Error(err)
	}
}

// Detecting inside the parents' intersection gives exactly the same truss as
// detecting from the full theme network — the exactness claim behind TCFI.
func TestQuickIntersectionRestrictedDetectionIsExact(t *testing.T) {
	f := func(c networkCase) bool {
		union := c.p1.Union(c.p2)
		full := Detect(c.nw.ThemeNetwork(union), c.alpha)
		t1 := Detect(c.nw.ThemeNetwork(c.p1), c.alpha)
		t2 := Detect(c.nw.ThemeNetwork(c.p2), c.alpha)
		inter := t1.Edges.Intersect(t2.Edges)
		restricted := Detect(c.nw.ThemeNetworkWithin(union, inter), c.alpha)
		return restricted.Edges.Equal(full.Edges)
	}
	if err := quick.Check(f, quickConfig(40)); err != nil {
		t.Error(err)
	}
}

// Theorem 6.1: the decomposition thresholds are strictly ascending, and the
// truss reconstructed just below each threshold strictly contains the truss
// reconstructed at the threshold.
func TestQuickDecompositionNesting(t *testing.T) {
	f := func(c networkCase) bool {
		d := Decompose(c.nw.ThemeNetwork(c.p1))
		if err := d.Validate(); err != nil {
			return false
		}
		thresholds := d.Thresholds()
		for i, a := range thresholds {
			if i > 0 && thresholds[i-1] >= a {
				return false
			}
			below := d.EdgesAt(a - 1e-6)
			at := d.EdgesAt(a)
			if !at.SubsetOf(below) || at.Len() >= below.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(40)); err != nil {
		t.Error(err)
	}
}

// restrictTo returns tn cut down to the given edges (ascending) and their
// endpoints: a candidate subgraph of the same pattern.
func restrictTo(tn *dbnet.ThemeNetwork, edges []graph.Edge) *dbnet.ThemeNetwork {
	out := &dbnet.ThemeNetwork{Pattern: tn.Pattern, Edges: edges}
	keep := make(map[graph.VertexID]bool)
	for _, e := range edges {
		keep[e.U], keep[e.V] = true, true
	}
	for i, v := range tn.Vertices {
		if keep[v] {
			out.Vertices = append(out.Vertices, v)
			out.Freqs = append(out.Freqs, tn.Freqs[i])
		}
	}
	return out
}

// sameBits reports whether two decompositions are bit-identical: the same
// frequencies, and the same levels with the same thresholds — compared as
// bit patterns, not within a tolerance — and the same edges in the same
// order.
func sameBits(a, b *Decomposition) bool {
	if len(a.Freq) != len(b.Freq) || len(a.Levels) != len(b.Levels) {
		return false
	}
	for v, f := range a.Freq {
		if g, ok := b.Freq[v]; !ok || math.Float64bits(f) != math.Float64bits(g) {
			return false
		}
	}
	for i, l := range a.Levels {
		if math.Float64bits(l.Alpha) != math.Float64bits(b.Levels[i].Alpha) || !slices.Equal(l.Removed, b.Levels[i].Removed) {
			return false
		}
	}
	return true
}

// TestDecomposeIgnoresTheCandidateSubgraph pins the lemma a scoped shard
// rebuild rests on (see peeler): the decomposition of a theme network is
// bit-identical to the decomposition of that network restricted to its own
// C*_p(0), and to that of any candidate subgraph in between. A TC-Tree node
// mined inside one candidate subgraph (the intersection of its parents'
// trusses before a delta) can therefore stand in for the node a rebuild
// would mine inside another (the intersection after it).
func TestDecomposeIgnoresTheCandidateSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	strict := 0
	for round := 0; round < 400; round++ {
		n := 10 + rng.Intn(12)
		const items = 4
		nw := dbnet.New(n)
		for i := 0; i < 4*n; i++ {
			a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if a != b {
				nw.MustAddEdge(a, b)
			}
		}
		for v := 0; v < n; v++ {
			for i := 1 + rng.Intn(5); i > 0; i-- {
				tx := itemset.New(itemset.Item(rng.Intn(items)), itemset.Item(rng.Intn(items)), itemset.Item(rng.Intn(items)))
				if err := nw.AddTransaction(graph.VertexID(v), tx); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, p := range []itemset.Itemset{
			itemset.New(itemset.Item(rng.Intn(items))),
			itemset.New(itemset.Item(rng.Intn(items)), itemset.Item(rng.Intn(items))),
			itemset.New(0, 1, 2),
		} {
			tn := nw.ThemeNetwork(p)
			full := Decompose(tn)
			var core []graph.Edge
			for _, l := range full.Levels {
				core = append(core, l.Removed...)
			}
			slices.SortFunc(core, graph.CompareEdges)
			if len(core) == 0 || len(core) == len(tn.Edges) {
				continue
			}
			strict++
			// A candidate subgraph in between: the core plus a random part
			// of the edges peel(0) drops.
			var between []graph.Edge
			for _, e := range tn.Edges {
				if _, ok := slices.BinarySearchFunc(core, e, graph.CompareEdges); ok || rng.Intn(2) == 0 {
					between = append(between, e)
				}
			}
			for name, edges := range map[string][]graph.Edge{"C*_p(0)": core, "a subgraph in between": between} {
				if got := Decompose(restrictTo(tn, edges)); !sameBits(full, got) {
					t.Fatalf("round %d pattern %v: decomposing %s gives\n%v\nthe whole theme network gives\n%v", round, p, name, got.Levels, full.Levels)
				}
			}
		}
	}
	t.Logf("%d cases peeled a strict superset of C*_p(0)", strict)
	if strict < 300 {
		t.Fatalf("only %d cases peeled a strict superset of C*_p(0); the generator no longer exercises the lemma", strict)
	}
}
