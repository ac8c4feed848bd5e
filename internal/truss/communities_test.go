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

func assertSameCommunities(t *testing.T, label string, got, want []Community) {
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

// TestSplitMatchesConnectedComponents compares Split with the map-based
// reference on random level sets, one Splitter reused throughout: same
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
		got := s.Split(pattern, live, nil)
		want := referenceCommunities(pattern, live)
		assertSameCommunities(t, "trial", got, want)
		kept, keptWant = append(kept, got), append(keptWant, want)
	}
	for i := range kept {
		assertSameCommunities(t, "result kept across later calls", kept[i], keptWant[i])
	}
	if got := s.Split(pattern, nil, nil); got != nil {
		t.Fatalf("no live level: %v, want no community", got)
	}
}

// TestSplitAppends checks that Split extends out without touching what it
// already holds, and that a vertex list cannot grow into its neighbour's.
func TestSplitAppends(t *testing.T) {
	live := []Level{{Alpha: 0.5, Removed: []graph.Edge{{U: 1, V: 2}, {U: 4, V: 5}}}}
	var s Splitter
	out := s.Split(itemset.New(1), live, nil)
	out = s.Split(itemset.New(2), live, out)
	if len(out) != 4 || !out[0].Pattern.Equal(itemset.New(1)) || !out[2].Pattern.Equal(itemset.New(2)) {
		t.Fatalf("appended answer = %+v", out)
	}
	_ = append(out[2].Vertices, 99)
	if !slices.Equal(out[3].Vertices, []graph.VertexID{4, 5}) {
		t.Fatalf("appending to one community's vertices overwrote the next: %v", out[3].Vertices)
	}
}

// TestSplitOnEdgesValidateRejects feeds Split what a decomposition never
// holds but a TCBIN shard that passes DecodeBinShard can: a self-loop, an
// edge stored in two levels, descending runs. It must answer without
// panicking, every vertex in exactly one community.
func TestSplitOnEdgesValidateRejects(t *testing.T) {
	live := []Level{
		{Alpha: 0.25, Removed: []graph.Edge{{U: 9, V: 9}, {U: 1, V: 2}, {U: 7, V: 7}}},
		{Alpha: 0.5, Removed: []graph.Edge{{U: 2, V: 1}, {U: 1, V: 2}, {U: -4, V: 7}}},
	}
	var s Splitter
	got := s.Split(itemset.New(1), live, nil)
	want := []Community{
		{Vertices: []graph.VertexID{-4, 7}, Edges: 2, Cohesion: 0.25},
		{Vertices: []graph.VertexID{1, 2}, Edges: 3, Cohesion: 0.25},
		{Vertices: []graph.VertexID{9}, Edges: 1, Cohesion: 0.25},
	}
	for i := range want {
		want[i].Pattern = itemset.New(1)
	}
	assertSameCommunities(t, "hostile levels", got, want)
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
