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

// endpoints returns the distinct endpoints of the live edges, ascending: the
// run a shard stores for a node whose every level is live.
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

// runShape is one of the runs the kernel is held to the reference with.
type runShape struct {
	name string
	run  []graph.VertexID
}

// runShapes returns the three runs of live: the endpoints of its edges; a
// superset, the endpoints and extra (vertices no live edge touches, as when
// C*_p(α_q) is smaller than C*_p(0)); and the endpoints less the one at drop
// modulo their number, which sends Split to its fallback (nil when there is
// no endpoint).
func runShapes(live []Level, extra []graph.VertexID, drop int) []runShape {
	run := endpoints(live)
	superset := append(slices.Clone(run), extra...)
	slices.Sort(superset)
	var missing []graph.VertexID
	if len(run) > 0 {
		missing = slices.Delete(slices.Clone(run), drop%len(run), drop%len(run)+1)
	}
	return []runShape{{"endpoints", run}, {"superset", slices.Compact(superset)}, {"missing", missing}}
}

// TestSplitMatchesConnectedComponents compares Split with the map-based
// reference on random level sets, each split three ways (runShapes), one
// Splitter reused throughout: same communities in the same order, same
// vertex lists, edge counts and — with == — cohesions, and earlier results
// intact after later calls.
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
		for _, shape := range runShapes(live, extra, rng.Intn(100)) {
			got := s.Split(pattern, live, nil, shape.run...)
			assertSameCommunities(t, shape.name, got, want)
			kept, keptWant = append(kept, got), append(keptWant, want)
		}
	}
	for i := range kept {
		assertSameCommunities(t, "result kept across later calls", kept[i], keptWant[i])
	}
	if got := s.Split(pattern, nil, nil); got != nil {
		t.Fatalf("no live level: %v, want no community", got)
	}
	if got := s.Split(pattern, nil, nil, 3, 10, 17); got != nil {
		t.Fatalf("no live level over a run: %v, want no community", got)
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

// FuzzSplit splits fuzzer-chosen levels. Every three bytes of data are an
// edge of one of four levels: two vertex bytes, read signed and doubled, so
// identifiers go negative and are even, and a level byte. The bytes of extra
// are vertices too, and as runs they name odd ones no edge can touch.
//
// Made canonical — no self-loop, every edge once (in the first level that
// holds it), each level ascending by (U, V) — the levels must split into the
// reference's communities over every run shape. Raw, with self-loops,
// duplicates, descending runs and negative identifiers as the bytes give
// them, Split must not panic and must answer over every shape exactly as
// over no run at all, the numbering derived from the edges. Over a run that
// is not sorted and repeats vertices, it must still count every edge once
// and put every endpoint in exactly one community.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{1, 2, 0, 2, 3, 0, 5, 6, 1, 6, 7, 3}, []byte{4, 0x80}, uint8(0))
	// TestSplitOnEdgesValidateRejects's levels: self-loops, an edge stored
	// twice and once reversed, a negative endpoint.
	f.Add([]byte{9, 9, 0, 1, 2, 0, 7, 7, 0, 2, 1, 1, 1, 2, 1, 0xfc, 7, 1}, []byte{1, 2}, uint8(3))
	f.Add([]byte{5, 3, 2, 5, 1, 2, 4, 2, 2, 0x7f, 0x80, 1}, []byte{0x7f, 5, 5, 0x80}, uint8(1))
	f.Add([]byte{}, []byte{1, 2, 3}, uint8(1))
	pattern := itemset.New(1)
	f.Fuzz(func(t *testing.T, data, extraBytes []byte, drop uint8) {
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
		raw = slices.DeleteFunc(raw, func(l Level) bool { return len(l.Removed) == 0 })
		extra := make([]graph.VertexID, len(extraBytes))
		for i, b := range extraBytes {
			extra[i] = 2*graph.VertexID(int8(b)) + 1
		}
		var s Splitter

		seen := make(map[uint64]bool)
		var canonical []Level
		for _, l := range raw {
			c := Level{Alpha: l.Alpha}
			for _, e := range l.Removed {
				if e.U == e.V {
					continue
				}
				if e = graph.EdgeOf(e.U, e.V); !seen[e.Key()] {
					seen[e.Key()] = true
					c.Removed = append(c.Removed, e)
				}
			}
			if len(c.Removed) > 0 {
				slices.SortFunc(c.Removed, graph.CompareEdges)
				canonical = append(canonical, c)
			}
		}
		want := referenceCommunities(pattern, canonical)
		for _, shape := range runShapes(canonical, extra, int(drop)) {
			assertSameCommunities(t, "canonical over "+shape.name, s.Split(pattern, canonical, nil, shape.run...), want)
		}

		derived := s.Split(pattern, raw, nil)
		for _, shape := range runShapes(raw, extra, int(drop)) {
			assertSameCommunities(t, "raw over "+shape.name, s.Split(pattern, raw, nil, shape.run...), derived)
		}

		// An unsorted run with repeats: the raw endpoints, as they come, and
		// extra's vertices on either side of them.
		var unsorted []graph.VertexID
		edges := 0
		for _, l := range raw {
			edges += len(l.Removed)
			for _, e := range l.Removed {
				unsorted = append(unsorted, e.V, e.U)
			}
		}
		unsorted = append(append(slices.Clone(extra), unsorted...), extra...)
		got := s.Split(pattern, raw, nil, unsorted...)
		member := make(map[graph.VertexID]bool)
		for _, c := range got {
			edges -= c.Edges
			for _, v := range c.Vertices {
				if member[v] {
					t.Fatalf("unsorted run: vertex %d in two communities: %+v", v, got)
				}
				member[v] = true
			}
		}
		if run := endpoints(raw); edges != 0 || len(member) != len(run) {
			t.Fatalf("unsorted run: %d edges uncounted, %d vertices for %d endpoints: %+v", edges, len(member), len(run), got)
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
