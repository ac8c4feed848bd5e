package truss

import (
	"fmt"
	"slices"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// Level is one node of the linked list L_p of Section 6.1: the edges removed
// when the maximal pattern truss shrinks at threshold Alpha. An edge stored in
// a level with threshold α_k belongs to C*_p(α) exactly when α < α_k.
type Level struct {
	// Alpha is the threshold α_k at which the edges of this level drop out of
	// the maximal pattern truss.
	Alpha float64
	// Removed is R_p(α_k) = E*_p(α_{k-1}) \ E*_p(α_k).
	Removed []graph.Edge
}

// Decomposition is the linked list L_p: the full decomposition of the maximal
// pattern truss C*_p(0) into disjoint removal levels with ascending
// thresholds. It supports reconstructing C*_p(α) for any α (Equation 1) and
// reports the non-trivial range of α for the theme network.
//
// C*_p(0)'s vertex set is stored as dbnet.ThemeNetwork stores a theme
// network's: Vertices ascends and Freqs runs parallel to it. That run is the
// node's numbering downstream: the TCBIN encoder writes it as the node's
// frequency run and numbers every level's edges by their positions in it
// (AppendPairs), and the read kernel splits over it (Split).
type Decomposition struct {
	// Pattern is the theme p.
	Pattern itemset.Itemset
	// Vertices are the vertices of C*_p(0), ascending: the endpoints of the
	// levels' edges.
	Vertices []graph.VertexID
	// Freqs[i] is f_{Vertices[i]}(p).
	Freqs []float64
	// Levels are the removal levels in ascending threshold order.
	Levels []Level
	// Components is the number of connected components of C*_p(0) — its
	// theme communities at α = 0 — or 0 where it was not counted: a
	// decomposition Decompose did not produce, or a node an index written
	// before the count was recorded holds.
	Components int
}

// Decompose computes C*_p(0) of the theme network with MPTD and decomposes it
// into removal levels following Theorem 6.1, one connected component of
// C*_p(0) at a time: a theme community is a maximal connected subgraph
// (Definition 3.5) and peeling never crosses a component, so each component
// is peeled as if it were alone. Within a component, starting from α_0 = 0,
// the next threshold is the least cohesion of its surviving edges, and the
// edges peeling at that threshold removes form the component's next level.
// The levels of different components merge only where their thresholds are
// equal, bit for bit: a level's threshold is its community's, whatever the
// other communities of the theme network.
//
// The components still share one heap and one pass: the peeler removes edges
// in ascending (cohesion, edge id) order, and a removal changes the cohesions
// of its own component only, so the edges of one component leave in the
// order they would leave it alone. A component opens a new level when its
// next edge's cohesion exceeds its current threshold by more than
// cohesionTolerance.
func Decompose(tn *dbnet.ThemeNetwork) *Decomposition {
	d, _ := DecomposeWithBase(tn)
	return d
}

// DecomposeWithBase is Decompose that also returns the edges of C*_p(0),
// ascending by (U, V): the survivors of peel(0) in local edge order, which
// the levels hold in threshold order. A miner that extends the pattern
// induces the extensions inside them. It counts the components it labels
// into the decomposition's Components.
func DecomposeWithBase(tn *dbnet.ThemeNetwork) (*Decomposition, []graph.Edge) {
	p := newPeeler(tn)
	defer p.release()
	p.peel(0)

	d := &Decomposition{Pattern: tn.Pattern.Clone()}
	var base []graph.Edge
	base, d.Vertices, d.Freqs = p.survivors()
	if len(base) == 0 {
		return d, base
	}

	// Label the components: a union-find forest over the local vertices,
	// then every surviving edge e gets its component's root in tag[e].
	n, m := len(tn.Vertices), len(tn.Edges)
	p.tags = slices.Grow(p.tags[:0], 2*n+3*m)[:2*n+3*m]
	comp, open, tag := p.tags[:n], p.tags[n:2*n], p.tags[2*n:2*n+m]
	levelOf, end := p.tags[2*n+m:2*n+2*m], p.tags[2*n+2*m:]
	for i := range comp {
		comp[i] = int32(i)
	}
	find := func(i int32) int32 {
		for comp[i] != i {
			comp[i] = comp[comp[i]]
			i = comp[i]
		}
		return i
	}
	// Every vertex of the run touches a surviving edge: each union that
	// joins two trees leaves one component fewer.
	d.Components = len(d.Vertices)
	for _, e := range p.alive {
		if a, b := find(p.eu[e]), find(p.ev[e]); a != b {
			comp[max(a, b)] = min(a, b)
			d.Components--
		}
	}
	// A parent always precedes its child, so one ascending pass points
	// every vertex at its root.
	for i := range comp {
		comp[i] = comp[comp[i]]
	}
	for _, e := range p.alive {
		tag[e] = comp[p.eu[e]]
	}

	// Peel the rest edge by edge. Component c's current level opened at
	// threshold alphas[open[c]] = at[c] (open[c] is -1 before its first);
	// the edge leaves with tag[e] = open[c] in place of its component.
	p.at = slices.Grow(p.at[:0], n)[:n]
	at := p.at
	for i := range open {
		open[i] = -1
	}
	alphas := p.alphas[:0]
	for len(p.heap) > 0 {
		e := p.heap[0]
		c, eco := tag[e], p.cohesion[e]
		if open[c] < 0 || eco > at[c]+cohesionTolerance {
			open[c], at[c] = int32(len(alphas)), eco
			alphas = append(alphas, eco)
		}
		tag[e] = open[c]
		p.pop()
	}
	p.alphas = alphas

	// The levels are the distinct thresholds, ascending: alphas itself
	// when they opened in ascending order (one component does), else
	// alphas sorted, with equal thresholds merged.
	thresholds, sorted := alphas, false
	for t := 1; t < len(alphas) && !sorted; t++ {
		if alphas[t] <= alphas[t-1] {
			thresholds = append(p.sorted[:0], alphas...)
			slices.Sort(thresholds)
			thresholds = slices.Compact(thresholds)
			p.sorted, sorted = thresholds, true
		}
	}
	for t, a := range alphas {
		levelOf[t] = int32(t)
		if sorted {
			k, _ := slices.BinarySearch(thresholds, a)
			levelOf[t] = int32(k)
		}
	}
	// Count each level's edges, then place them in local edge order from
	// the last down, which leaves every level ascending by (U, V) and
	// end[k] at level k's start.
	end = end[:len(thresholds)]
	clear(end)
	for _, e := range p.alive {
		end[levelOf[tag[e]]]++
	}
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	removed := make([]graph.Edge, len(base))
	for i := len(p.alive) - 1; i >= 0; i-- {
		k := levelOf[tag[p.alive[i]]]
		end[k]--
		removed[end[k]] = base[i]
	}
	d.Levels = make([]Level, len(thresholds))
	for k, a := range thresholds {
		hi := len(removed)
		if k+1 < len(end) {
			hi = int(end[k+1])
		}
		d.Levels[k] = Level{Alpha: a, Removed: removed[end[k]:hi:hi]}
	}
	return d, base
}

// Empty reports whether the decomposition holds no edges, i.e. C*_p(0) = ∅.
func (d *Decomposition) Empty() bool { return d == nil || len(d.Levels) == 0 }

// NumEdges returns the number of edges of C*_p(0) stored across all levels.
func (d *Decomposition) NumEdges() int {
	if d == nil {
		return 0
	}
	n := 0
	for _, l := range d.Levels {
		n += len(l.Removed)
	}
	return n
}

// MaxAlpha returns α*_p, the exclusive upper bound of the non-trivial range of
// α for the theme network: C*_p(α) = ∅ for every α ≥ MaxAlpha. It returns 0
// for an empty decomposition.
func (d *Decomposition) MaxAlpha() float64 {
	if d.Empty() {
		return 0
	}
	return d.Levels[len(d.Levels)-1].Alpha
}

// EdgesAt reconstructs E*_p(α) using Equation 1: the union of the removal sets
// of every level with threshold strictly greater than α.
func (d *Decomposition) EdgesAt(alpha float64) graph.EdgeSet {
	out := make(graph.EdgeSet)
	if d == nil {
		return out
	}
	for _, l := range d.Levels {
		if LevelLive(l.Alpha, alpha) {
			for _, e := range l.Removed {
				out.Add(e)
			}
		}
	}
	return out
}

// TrussAt reconstructs the maximal pattern truss C*_p(α) from the
// decomposition. The returned truss may be empty but is never nil.
func (d *Decomposition) TrussAt(alpha float64) *Truss {
	edges := d.EdgesAt(alpha)
	t := &Truss{Pattern: d.patternClone(), Alpha: alpha, Edges: edges, Freq: make(map[graph.VertexID]float64)}
	// The truss's vertices ascend and are a subset of the run: one merge.
	k := 0
	for _, v := range edges.Vertices() {
		for k < len(d.Vertices) && d.Vertices[k] < v {
			k++
		}
		f := 0.0
		if k < len(d.Vertices) && d.Vertices[k] == v {
			f = d.Freqs[k]
		}
		t.Freq[v] = f
	}
	return t
}

// Thresholds returns the ascending removal thresholds α_1 < α_2 < … < α_h.
func (d *Decomposition) Thresholds() []float64 {
	if d == nil {
		return nil
	}
	out := make([]float64, len(d.Levels))
	for i, l := range d.Levels {
		out[i] = l.Alpha
	}
	return out
}

func (d *Decomposition) patternClone() itemset.Itemset {
	if d == nil {
		return nil
	}
	return d.Pattern.Clone()
}

// String summarises the decomposition.
func (d *Decomposition) String() string {
	if d == nil {
		return "truss.Decomposition(nil)"
	}
	return fmt.Sprintf("truss.Decomposition{p=%v, levels=%d, edges=%d, α*=%g}",
		d.Pattern, len(d.Levels), d.NumEdges(), d.MaxAlpha())
}

// Validate checks structural invariants of the decomposition: the vertices
// ascend strictly with one frequency each, levels have strictly ascending
// thresholds, non-empty removal sets, and no edge appears twice, within a
// level or across levels. Tests use it, as does the test-only decoder of a
// TCBIN node back into a pointer node (tctree).
func (d *Decomposition) Validate() error {
	if d == nil {
		return nil
	}
	if len(d.Freqs) != len(d.Vertices) {
		return fmt.Errorf("truss: %d vertices but %d frequencies", len(d.Vertices), len(d.Freqs))
	}
	for i := 1; i < len(d.Vertices); i++ {
		if d.Vertices[i-1] >= d.Vertices[i] {
			return fmt.Errorf("truss: vertices not strictly ascending at %d", d.Vertices[i])
		}
	}
	keys := make([]uint64, 0, d.NumEdges())
	prev := 0.0
	for i, l := range d.Levels {
		if len(l.Removed) == 0 {
			return fmt.Errorf("truss: level %d has no removed edges", i)
		}
		if i > 0 && l.Alpha <= prev {
			return fmt.Errorf("truss: level %d threshold %g not greater than previous %g", i, l.Alpha, prev)
		}
		prev = l.Alpha
		for _, e := range l.Removed {
			keys = append(keys, e.Key())
		}
	}
	// Sorted, a repeated edge is two equal neighbours: no map, one
	// allocation, whatever the size of the decomposition.
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("truss: edge %v appears more than once", graph.EdgeFromKey(keys[i]))
		}
	}
	return nil
}
