package truss

import (
	"math/rand"
	"slices"
	"testing"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// referenceCommunities derives the communities of a set of levels the
// map-based way — EdgeSet.ConnectedComponents over the union of the levels,
// the minimum threshold looked up edge by edge — sharing nothing with Split.
func referenceCommunities(pattern itemset.Itemset, live []Level) []Community {
	edges := make(graph.EdgeSet)
	removal := make(map[uint64]float64)
	for _, l := range live {
		for _, e := range l.Removed {
			edges.Add(e)
			removal[e.Key()] = l.Alpha
		}
	}
	var out []Community
	for _, comp := range edges.ConnectedComponents() {
		c := Community{Pattern: pattern, Vertices: comp.Vertices(), Edges: comp.Len()}
		first := true
		for key := range comp {
			if a := removal[key]; first || a < c.Cohesion {
				c.Cohesion, first = a, false
			}
		}
		out = append(out, c)
	}
	return out
}

func assertSameCommunities(t testing.TB, label string, got, want []Community) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d communities, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Pattern.Equal(w.Pattern) || !slices.Equal(g.Vertices, w.Vertices) || g.Edges != w.Edges || g.Cohesion != w.Cohesion {
			t.Fatalf("%s: community %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// randomLevels scatters the edges of a random sparse graph over a few levels
// with ascending thresholds, each level ascending by (U, V) as Decompose
// leaves it. Vertex identifiers are spread out so local ≠ global.
func randomLevels(rng *rand.Rand) []Level {
	n := 2 + rng.Intn(40)
	set := make(graph.EdgeSet)
	for i := rng.Intn(3 * n); i > 0; i-- {
		a, b := graph.VertexID(7*rng.Intn(n)+3), graph.VertexID(7*rng.Intn(n)+3)
		if a != b {
			set.Add(graph.EdgeOf(a, b))
		}
	}
	levels := make([]Level, 1+rng.Intn(4))
	for i := range levels {
		levels[i].Alpha = float64(i+1) * 0.125
	}
	for _, e := range set.Edges() {
		l := &levels[rng.Intn(len(levels))]
		l.Removed = append(l.Removed, e)
	}
	return slices.DeleteFunc(levels, func(l Level) bool { return len(l.Removed) == 0 })
}

// endpoints returns the distinct endpoints of the levels' edges, ascending:
// the run a shard stores for a node whose every level is live.
func endpoints(live []Level) []graph.VertexID {
	var run []graph.VertexID
	for _, l := range live {
		for _, e := range l.Removed {
			run = append(run, e.U, e.V)
		}
	}
	slices.Sort(run)
	return slices.Compact(run)
}

// number is the one numbering helper of the kernel's tests: it writes the
// levels' edges as the position pairs of width P into run, as the TCBIN
// encoder stores them.
func number[P Position](tb testing.TB, run []graph.VertexID, levels []Level) []PairLevel {
	tb.Helper()
	out := make([]PairLevel, len(levels))
	for k, l := range levels {
		pairs, err := AppendPairs[P](nil, run, l.Removed)
		if err != nil {
			tb.Fatal(err)
		}
		out[k] = PairLevel{Alpha: l.Alpha, Pairs: pairs}
	}
	return out
}

// splitBoth splits levels over run at both widths and requires the two
// answers to agree; it returns the u16 one.
func splitBoth(tb testing.TB, s *Splitter, pattern itemset.Itemset, run []graph.VertexID, levels []Level, out []Community) []Community {
	tb.Helper()
	wide := Split[uint32](s, pattern, run, number[uint32](tb, run, levels), nil)
	got := Split[uint16](s, pattern, run, number[uint16](tb, run, levels), out)
	assertSameCommunities(tb, "u16 against u32 positions", got[len(out):], wide)
	return got
}

// runShape is one of the runs the kernel is held to the reference with.
type runShape struct {
	name string
	run  []graph.VertexID
}

// runShapes returns the two runs of live: the endpoints of its edges, and a
// superset, the endpoints and extra (vertices no live edge touches, as when
// C*_p(α_q) is smaller than C*_p(0)).
func runShapes(live []Level, extra []graph.VertexID) []runShape {
	run := endpoints(live)
	superset := append(slices.Clone(run), extra...)
	slices.Sort(superset)
	return []runShape{{"endpoints", run}, {"superset", slices.Compact(superset)}}
}

// TestSplitMatchesConnectedComponents compares Split with the map-based
// reference on random level sets, each split over both run shapes
// (runShapes) at both position widths, one Splitter reused throughout: same
// communities in the same order, same vertex lists, edge counts and — with
// == — cohesions, and earlier results intact after later calls.
func TestSplitMatchesConnectedComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pattern := itemset.New(3, 5)
	var s Splitter
	var kept [][]Community
	var keptWant [][]Community
	for trial := 0; trial < 300; trial++ {
		live := randomLevels(rng)
		want := referenceCommunities(pattern, live)
		// Endpoints are 3 modulo 7 (randomLevels), the extras never are.
		var extra []graph.VertexID
		for i := rng.Intn(20); i > 0; i-- {
			extra = append(extra, graph.VertexID(7*rng.Intn(50)+4+rng.Intn(6)))
		}
		for _, shape := range runShapes(live, extra) {
			got := splitBoth(t, &s, pattern, shape.run, live, nil)
			assertSameCommunities(t, shape.name, got, want)
			kept, keptWant = append(kept, got), append(keptWant, want)
		}
	}
	for i := range kept {
		assertSameCommunities(t, "result kept across later calls", kept[i], keptWant[i])
	}
	if got := Split[uint16](&s, pattern, nil, nil, nil); got != nil {
		t.Fatalf("no live level: %v, want no community", got)
	}
	if got := Split[uint32](&s, pattern, []graph.VertexID{3, 10, 17}, nil, nil); got != nil {
		t.Fatalf("no live level over a run: %v, want no community", got)
	}
}

// TestSplitAppends checks that Split extends out without touching what it
// already holds, and that a vertex list cannot grow into its neighbour's.
func TestSplitAppends(t *testing.T) {
	levels := []Level{{Alpha: 0.5, Removed: []graph.Edge{{U: 1, V: 2}, {U: 4, V: 5}}}}
	run := endpoints(levels)
	var s Splitter
	out := splitBoth(t, &s, itemset.New(1), run, levels, nil)
	out = splitBoth(t, &s, itemset.New(2), run, levels, out)
	if len(out) != 4 || !out[0].Pattern.Equal(itemset.New(1)) || !out[2].Pattern.Equal(itemset.New(2)) {
		t.Fatalf("appended answer = %+v", out)
	}
	_ = append(out[2].Vertices, 99)
	if !slices.Equal(out[3].Vertices, []graph.VertexID{4, 5}) {
		t.Fatalf("appending to one community's vertices overwrote the next: %v", out[3].Vertices)
	}
}

// TestSplitOnEdgesValidateRejects feeds Split the one thing a decomposition
// never holds but a TCBIN shard that passes DecodeBinShard can: an edge
// stored in two levels (and twice in the run of pairs overall). It must
// count the edge twice, take the smaller threshold as the cohesion, and put
// every vertex in exactly one community; a vertex of the run no pair
// touches is in none.
func TestSplitOnEdgesValidateRejects(t *testing.T) {
	levels := []Level{
		{Alpha: 0.25, Removed: []graph.Edge{{U: -4, V: 7}, {U: 1, V: 2}}},
		{Alpha: 0.5, Removed: []graph.Edge{{U: -4, V: 7}, {U: 1, V: 2}, {U: 2, V: 9}}},
	}
	run := []graph.VertexID{-4, 1, 2, 5, 7, 9}
	var s Splitter
	got := splitBoth(t, &s, itemset.New(1), run, levels, nil)
	want := []Community{
		{Vertices: []graph.VertexID{-4, 7}, Edges: 2, Cohesion: 0.25},
		{Vertices: []graph.VertexID{1, 2, 9}, Edges: 3, Cohesion: 0.25},
	}
	for i := range want {
		want[i].Pattern = itemset.New(1)
	}
	assertSameCommunities(t, "an edge in two levels", got, want)
}

// TestAppendPairsRefusesWhatHasNoPair pins the numbering's refusals: an
// endpoint missing from the run, a self-loop, a reversed edge and edges out
// of order within one list — but not across two lists, which are numbered
// back to back.
func TestAppendPairsRefusesWhatHasNoPair(t *testing.T) {
	run := []graph.VertexID{1, 2, 5}
	for _, edges := range [][]graph.Edge{
		{{U: 1, V: 3}}, {{U: 0, V: 2}}, {{U: 2, V: 2}}, {{U: 5, V: 1}},
		{{U: 2, V: 5}, {U: 1, V: 5}}, {{U: 1, V: 5}, {U: 1, V: 2}}, {{U: 1, V: 2}, {U: 1, V: 2}},
	} {
		if _, err := AppendPairs[uint16](nil, run, edges); err == nil {
			t.Fatalf("AppendPairs numbered %v over %v", edges, run)
		}
	}
	got, err := AppendPairs[uint16](nil, run, []graph.Edge{{U: 1, V: 5}, {U: 2, V: 5}})
	if err != nil || !slices.Equal(got, []byte{0, 0, 2, 0, 1, 0, 2, 0}) {
		t.Fatalf("AppendPairs = % x, %v", got, err)
	}
	got, err = AppendPairs[uint16](nil, run, []graph.Edge{{U: 2, V: 5}}, nil, []graph.Edge{{U: 1, V: 5}})
	if err != nil || !slices.Equal(got, []byte{1, 0, 2, 0, 0, 0, 2, 0}) {
		t.Fatalf("AppendPairs over three lists = % x, %v", got, err)
	}
}

// FuzzSplit splits fuzzer-chosen levels. Every three bytes of data are an
// edge of one of four levels: two vertex bytes, read signed and doubled, so
// identifiers go negative and are even, and a level byte. The bytes of extra
// are vertices too, and as runs they name odd ones no edge can touch.
//
// Made canonical — no self-loop, every edge once (in the first level that
// holds it), each level ascending by (U, V) — the levels must split into the
// reference's communities over both run shapes and both widths. Left with an
// edge in several levels, as a shard the decoder accepts may hold, every
// level still free of self-loops and ascending, Split must answer with the
// canonical communities' vertices and cohesions and count every stored pair.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{1, 2, 0, 2, 3, 0, 5, 6, 1, 6, 7, 3}, []byte{4, 0x80})
	// Self-loops (dropped), an edge stored in two levels and once reversed,
	// a negative endpoint.
	f.Add([]byte{9, 9, 0, 1, 2, 0, 7, 7, 0, 2, 1, 1, 1, 2, 1, 0xfc, 7, 1}, []byte{1, 2})
	f.Add([]byte{5, 3, 2, 5, 1, 2, 4, 2, 2, 0x7f, 0x80, 1}, []byte{0x7f, 5, 5, 0x80})
	f.Add([]byte{}, []byte{1, 2, 3})
	pattern := itemset.New(1)
	f.Fuzz(func(t *testing.T, data, extraBytes []byte) {
		// Two dozen edges reach every branch of the kernel; longer inputs
		// only slow the fuzzer's minimizing down.
		data, extraBytes = data[:min(len(data), 3*24)], extraBytes[:min(len(extraBytes), 8)]
		raw := make([]Level, 4)
		for i := range raw {
			raw[i].Alpha = float64(i+1) * 0.125
		}
		for ; len(data) >= 3; data = data[3:] {
			l := &raw[data[2]%4]
			l.Removed = append(l.Removed, graph.Edge{U: 2 * graph.VertexID(int8(data[0])), V: 2 * graph.VertexID(int8(data[1]))})
		}
		extra := make([]graph.VertexID, len(extraBytes))
		for i, b := range extraBytes {
			extra[i] = 2*graph.VertexID(int8(b)) + 1
		}
		var s Splitter

		// stored: each level's edges once, no self-loop, ascending, as the
		// decoder accepts them; canonical: each edge in its first level only.
		seen := make(map[uint64]bool)
		var canonical, stored []Level
		pairs := 0
		for _, l := range raw {
			st, c := Level{Alpha: l.Alpha}, Level{Alpha: l.Alpha}
			for _, e := range l.Removed {
				if e.U != e.V {
					st.Removed = append(st.Removed, graph.EdgeOf(e.U, e.V))
				}
			}
			slices.SortFunc(st.Removed, graph.CompareEdges)
			st.Removed = slices.Compact(st.Removed)
			for _, e := range st.Removed {
				if !seen[e.Key()] {
					seen[e.Key()] = true
					c.Removed = append(c.Removed, e)
				}
			}
			if len(st.Removed) > 0 {
				stored = append(stored, st)
				pairs += len(st.Removed)
			}
			if len(c.Removed) > 0 {
				canonical = append(canonical, c)
			}
		}
		want := referenceCommunities(pattern, canonical)
		for _, shape := range runShapes(canonical, extra) {
			assertSameCommunities(t, "canonical over "+shape.name, splitBoth(t, &s, pattern, shape.run, canonical, nil), want)

			got := splitBoth(t, &s, pattern, shape.run, stored, nil)
			if len(got) != len(want) {
				t.Fatalf("stored over %s: %d communities, want %d", shape.name, len(got), len(want))
			}
			edges := 0
			for i, c := range got {
				if !slices.Equal(c.Vertices, want[i].Vertices) || c.Cohesion != want[i].Cohesion || c.Edges < want[i].Edges {
					t.Fatalf("stored over %s: community %d = %+v, canonical %+v", shape.name, i, c, want[i])
				}
				edges += c.Edges
			}
			if edges != pairs {
				t.Fatalf("stored over %s: communities hold %d edges, the levels %d pairs", shape.name, edges, pairs)
			}
		}
	})
}

// TestLiveLevelsIsTheLevelLiveSuffix pins LiveLevels to the comparison
// EdgesAt applies level by level, on both sides of the tolerance.
func TestLiveLevelsIsTheLevelLiveSuffix(t *testing.T) {
	d := &Decomposition{Levels: []Level{{Alpha: 0.25}, {Alpha: 0.5}, {Alpha: 1}}}
	for _, alpha := range []float64{0, 0.25 - 2*cohesionTolerance, 0.25 - cohesionTolerance/2, 0.25, 0.5 + cohesionTolerance/2, 1, 2} {
		want := 0
		for _, l := range d.Levels {
			if LevelLive(l.Alpha, alpha) {
				want++
			}
		}
		if got := d.LiveLevels(alpha); len(got) != want || (want > 0 && got[len(got)-1].Alpha != 1) {
			t.Fatalf("LiveLevels(%v) = %v, want the last %d levels", alpha, got, want)
		}
	}
	if got := (*Decomposition)(nil).LiveLevels(0); got != nil {
		t.Fatalf("nil decomposition: %v", got)
	}
}
