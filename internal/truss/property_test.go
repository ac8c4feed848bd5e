package truss

import (
	"cmp"
	"fmt"
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
	if !slices.Equal(a.Vertices, b.Vertices) || len(a.Freqs) != len(b.Freqs) || len(a.Levels) != len(b.Levels) {
		return false
	}
	for i, f := range a.Freqs {
		if math.Float64bits(f) != math.Float64bits(b.Freqs[i]) {
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

// componentMerge decomposes every connected component of C*_p(0) — the
// edges of d, tn's decomposition — on its own, as tn restricted to the
// component, and merges the results: the vertex runs, and the levels whose
// thresholds are equal bit for bit. It returns the merge and the number of
// components.
func componentMerge(tn *dbnet.ThemeNetwork, d *Decomposition) (*Decomposition, int) {
	var core []graph.Edge
	for _, l := range d.Levels {
		core = append(core, l.Removed...)
	}
	comps := graph.NewEdgeSet(core...).ConnectedComponents()
	out := &Decomposition{Pattern: tn.Pattern}
	freq := make(map[graph.VertexID]float64)
	byAlpha := make(map[float64][]graph.Edge)
	for _, c := range comps {
		cd := Decompose(restrictTo(tn, c.Edges()))
		for i, v := range cd.Vertices {
			out.Vertices = append(out.Vertices, v)
			freq[v] = cd.Freqs[i]
		}
		for _, l := range cd.Levels {
			byAlpha[l.Alpha] = append(byAlpha[l.Alpha], l.Removed...)
		}
	}
	slices.Sort(out.Vertices)
	for _, v := range out.Vertices {
		out.Freqs = append(out.Freqs, freq[v])
	}
	for alpha, edges := range byAlpha {
		slices.SortFunc(edges, graph.CompareEdges)
		out.Levels = append(out.Levels, Level{Alpha: alpha, Removed: edges})
	}
	slices.SortFunc(out.Levels, func(a, b Level) int { return cmp.Compare(a.Alpha, b.Alpha) })
	return out, len(comps)
}

// TestDecomposeMergesItsComponents pins the per-component peel: on the
// random theme networks of the decomposition tests (their seeds), Decompose
// is bit for bit the equal-threshold merge of Decompose over each connected
// component of C*_p(0) — a component's levels do not depend on the others.
func TestDecomposeMergesItsComponents(t *testing.T) {
	several := 0
	for _, seed := range []int64{5, 23, 61} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			n := 8 + rng.Intn(16)
			tn := randomThemeNetwork(rng, n, n*(3+rng.Intn(4))/2)
			d := Decompose(tn)
			merged, comps := componentMerge(tn, d)
			if !sameBits(d, merged) {
				t.Fatalf("seed %d trial %d: Decompose gives\n%v\nits %d components decomposed apart give\n%v", seed, trial, d.Levels, comps, merged.Levels)
			}
			if d.Components != comps {
				t.Fatalf("seed %d trial %d: Decompose counts %d components, C*_p(0) has %d", seed, trial, d.Components, comps)
			}
			if comps > 1 {
				several++
			}
		}
	}
	t.Logf("%d of 180 theme networks had more than one component", several)
	if several < 30 {
		t.Fatalf("only %d of 180 theme networks had more than one component; the generator no longer exercises the merge", several)
	}
}

// TestDecomposePeelsComponentsApart is the case the per-component peel
// changes: two disjoint triangles whose cohesions differ by less than
// cohesionTolerance. Peeled as one theme network, the lower threshold took
// both triangles into one level; each community keeps its own threshold.
func TestDecomposePeelsComponentsApart(t *testing.T) {
	const f, g = 0.5, 0.5 + 1e-12
	tn := themeNetworkOf([]graph.Edge{
		graph.EdgeOf(0, 1), graph.EdgeOf(0, 2), graph.EdgeOf(1, 2),
		graph.EdgeOf(3, 4), graph.EdgeOf(3, 5), graph.EdgeOf(4, 5),
	}, func(v graph.VertexID) float64 {
		if v < 3 {
			return f
		}
		return g
	})
	d := Decompose(tn)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Levels) != 2 || d.Levels[0].Alpha != f || d.Levels[1].Alpha != g {
		t.Fatalf("levels %v, want one at %v and one at %v", d.Levels, f, g)
	}
	for k, want := range [][]graph.Edge{
		{graph.EdgeOf(0, 1), graph.EdgeOf(0, 2), graph.EdgeOf(1, 2)},
		{graph.EdgeOf(3, 4), graph.EdgeOf(3, 5), graph.EdgeOf(4, 5)},
	} {
		if !slices.Equal(d.Levels[k].Removed, want) {
			t.Fatalf("level %d holds %v, want %v", k, d.Levels[k].Removed, want)
		}
	}
}

// checkRun holds a decomposition of tn, and the base DecomposeWithBase
// returned with it, to the layout the miner and the encoder rely on: the
// vertex run is the ascending endpoint set of the levels' edges, each
// frequency is bit for bit the theme network's, the base is the ascending
// union of the levels, and every level survives AppendPairs followed by
// AppendEdges over the run, at both position widths.
func checkRun(tb testing.TB, label string, tn *dbnet.ThemeNetwork, d *Decomposition, base []graph.Edge) {
	tb.Helper()
	var union []graph.Edge
	var ends []graph.VertexID
	for _, l := range d.Levels {
		union = append(union, l.Removed...)
		for _, e := range l.Removed {
			ends = append(ends, e.U, e.V)
		}
	}
	slices.Sort(ends)
	if ends = slices.Compact(ends); !slices.Equal(d.Vertices, ends) {
		tb.Fatalf("%s: Vertices = %v, the levels' endpoints are %v", label, d.Vertices, ends)
	}
	if len(d.Freqs) != len(d.Vertices) {
		tb.Fatalf("%s: %d frequencies for %d vertices", label, len(d.Freqs), len(d.Vertices))
	}
	for i, v := range d.Vertices {
		if want := tn.Frequency(v); math.Float64bits(d.Freqs[i]) != math.Float64bits(want) {
			tb.Fatalf("%s: Freqs[%d] = %v for vertex %d, the theme network has %v", label, i, d.Freqs[i], v, want)
		}
	}
	slices.SortFunc(union, graph.CompareEdges)
	if !slices.Equal(base, union) {
		tb.Fatalf("%s: base = %v, the levels hold %v", label, base, union)
	}
	var each []byte
	levels := make([][]graph.Edge, len(d.Levels))
	for _, wide := range []bool{false, true} {
		for k, l := range d.Levels {
			var pairs []byte
			var err error
			var back []graph.Edge
			if wide {
				pairs, err = AppendPairs[uint32](nil, d.Vertices, l.Removed)
				back = AppendEdges[uint32](nil, d.Vertices, pairs)
			} else {
				pairs, err = AppendPairs[uint16](nil, d.Vertices, l.Removed)
				back = AppendEdges[uint16](nil, d.Vertices, pairs)
				each, levels[k] = append(each, pairs...), l.Removed
			}
			if err != nil || !slices.Equal(back, l.Removed) {
				tb.Fatalf("%s: level %d (wide %v) numbered over the run comes back as %v, %v; want %v", label, k, wide, back, err, l.Removed)
			}
		}
	}
	// The encoder numbers a node's levels in one call: the same bytes.
	if all, err := AppendPairs[uint16](nil, d.Vertices, levels...); err != nil || !slices.Equal(all, each) {
		tb.Fatalf("%s: the levels numbered in one call give % x, %v; one by one % x", label, all, err, each)
	}
}

// TestDecompositionCarriesItsRun checks the run and the base on the random
// theme networks of the decomposition tests (their seeds), and on the
// candidate subgraphs of TestDecomposeIgnoresTheCandidateSubgraph's shape.
func TestDecompositionCarriesItsRun(t *testing.T) {
	checked := 0
	for _, seed := range []int64{5, 23, 61} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 40; trial++ {
			n := 6 + rng.Intn(12)
			tn := randomThemeNetwork(rng, n, n*(2+rng.Intn(3)))
			d, base := DecomposeWithBase(tn)
			checkRun(t, fmt.Sprintf("seed %d trial %d", seed, trial), tn, d, base)
			if !d.Empty() {
				checked++
			}
		}
	}
	if checked < 60 {
		t.Fatalf("only %d of 120 random theme networks had a non-empty C*_p(0)", checked)
	}
}

// FuzzDecompose decomposes a fuzzer-chosen theme network: ids holds up to 24
// vertex ids — the first byte, signed, is the lowest, every further byte
// adds a gap of 1 to 16 — freqs a frequency in (0, 1] per vertex (1 where it
// runs out), and mask one bit per vertex pair (i, j), i < j, in ascending
// order: an edge where it is set. The decomposition must validate, carry its
// run and base as checkRun requires, come out bit-identical from a second
// Decompose of the same network, and be the equal-threshold merge of its
// components decomposed apart, whose number it must count, three vertices
// or more to each.
func FuzzDecompose(f *testing.F) {
	// A 4-clique; two triangles sharing an edge at mixed frequencies over
	// negative ids; a 5-clique with a pendant edge and gapped ids.
	f.Add([]byte{0, 0, 0, 0}, []byte{}, []byte{0x3f})
	f.Add([]byte{0xf0, 3, 0, 7}, []byte{255, 0, 127, 63}, []byte{0x1f})
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{10, 20, 30, 40, 50, 60}, []byte{0xff, 0xbf, 0x01})
	f.Fuzz(func(t *testing.T, ids, freqs, mask []byte) {
		ids = ids[:min(len(ids), 24)]
		tn := &dbnet.ThemeNetwork{Pattern: itemset.New(1)}
		for i, b := range ids {
			v := graph.VertexID(int8(b))
			if i > 0 {
				v = tn.Vertices[i-1] + 1 + graph.VertexID(b%16)
			}
			fr := 1.0
			if i < len(freqs) {
				fr = float64(int(freqs[i])+1) / 256
			}
			tn.Vertices = append(tn.Vertices, v)
			tn.Freqs = append(tn.Freqs, fr)
		}
		bit := 0
		for i := range tn.Vertices {
			for j := i + 1; j < len(tn.Vertices); j++ {
				if bit/8 < len(mask) && mask[bit/8]>>(bit%8)&1 == 1 {
					tn.Edges = append(tn.Edges, graph.Edge{U: tn.Vertices[i], V: tn.Vertices[j]})
				}
				bit++
			}
		}
		d, base := DecomposeWithBase(tn)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		checkRun(t, "fuzzed theme network", tn, d, base)
		if again := Decompose(tn); !sameBits(d, again) {
			t.Fatalf("a second Decompose differs:\n%v %v\n%v %v", d.Vertices, d.Levels, again.Vertices, again.Levels)
		}
		if merged, comps := componentMerge(tn, d); !sameBits(d, merged) {
			t.Fatalf("Decompose gives %v, its %d components decomposed apart give %v", d.Levels, comps, merged.Levels)
		} else if d.Components != comps || 3*comps > len(d.Vertices) {
			t.Fatalf("Decompose counts %d components of C*_p(0) on %d vertices, it has %d", d.Components, len(d.Vertices), comps)
		}
	})
}
