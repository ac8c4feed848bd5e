package tctree

import (
	"math"
	"slices"

	"themecomm/internal/graph"
	"themecomm/internal/truss"
)

// This file holds the region-local half of a scoped rebuild: what part of a
// shard a delta can change, and how a node mined inside that part takes back
// the rest of its previous version.
//
// A theme community is a connected component of C*_p(0) (Definition 3.5),
// truss.Decompose peels each component on its own, and by Proposition 5.3
// every community of a pattern lies inside one community of the shard's
// root item. A delta changes the communities of a root that hold one of its
// seeds (delta.Scope.Seeds) and no other; the region W of a shard is the
// seeds plus every vertex of a previous root community that holds one. No
// community a rebuild keeps touches W, and every community it changes lies
// inside W — before and after the delta, at the root and at every node below
// it. So a node of the rebuilt shard is what peeling its theme network on W
// gives, plus the levels of its previous version outside W as they are.

// region returns the region of a scoped rebuild of the shard for a delta
// whose seeds for the shard's root item are seeds (ascending): the seeds and
// every vertex of each community of the root's C*_p(0) that holds one,
// ascending. A root recorded as one community needs no split: the region is
// the seeds with the whole run when a seed lies in it, and the seeds alone
// otherwise.
func (b *BinShard) region(seeds []graph.VertexID) []graph.VertexID {
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	defer clear(sc.levels[:cap(sc.levels)])
	seed := graph.NumberRun(seeds)
	defer seed.Release()
	holdsSeed := func(vs []graph.VertexID) bool {
		for _, v := range vs {
			if _, ok := seed.Index(v); ok {
				return true
			}
		}
		return false
	}
	// Every level is live below every threshold: the communities at α = 0.
	run, levels, whole := b.liveLevels(sc, 0, math.Inf(-1))
	out := slices.Clone(seeds)
	if whole {
		if holdsSeed(run) {
			out = append(out, run...)
		}
	} else {
		if b.wide {
			sc.found = truss.Split[uint32](&sc.split, nil, run, levels, sc.found[:0])
		} else {
			sc.found = truss.Split[uint16](&sc.split, nil, run, levels, sc.found[:0])
		}
		for _, c := range sc.found {
			if holdsSeed(c.Vertices) {
				out = append(out, c.Vertices...)
			}
		}
		clear(sc.found)
		sc.found = sc.found[:0]
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// carryAll completes the decompositions of the subtree a scoped expansion
// mined under n, whose pattern had node at in the previous shard: every
// node takes its previous version's levels outside the region (carry).
func (x *expansion) carryAll(n *Node, at uint32) {
	n.Decomp = x.carry(n.Decomp, at)
	for _, c := range n.Children {
		if was := x.prev.childWith(at, c.Item); was != noNode {
			x.carryAll(c, was)
		}
	}
}

// outside reports whether node i of the previous shard holds a vertex
// outside the region, and with it — the vertex lies on an edge of its
// community — a community the region does not reach.
func (x *expansion) outside(i uint32) bool {
	b := x.prev
	fs, fc := b.run(i, binNodeFreqStart)
	for f := fs; f < fs+fc; f++ {
		if x.beyond(graph.VertexID(int32(binLE.Uint32(b.freq[uint64(f)*binFreqSize:])))) {
			return true
		}
	}
	return false
}

// beyond reports whether vertex v lies outside the region.
func (x *expansion) beyond(v graph.VertexID) bool {
	_, in := x.inRegion.Index(v)
	return !in
}

// carry returns the decomposition of a node of a scoped expansion: d, what
// peeling its theme network inside the region gave, with the vertices and
// level edges node at of the previous shard holds outside the region. Those
// belong to communities the delta did not change, so their thresholds and
// frequencies are the stored ones; a level of either side whose threshold
// the other has too merges with it, as Decompose merges the equal
// thresholds of two components, and the encoder numbers the edges by the
// merged vertex run. Those communities share no vertex with d's, so the
// components of the result are d's and theirs. d itself is returned when
// nothing lies outside.
func (x *expansion) carry(d *truss.Decomposition, at uint32) *truss.Decomposition {
	b := x.prev
	fs, fc := b.run(at, binNodeFreqStart)
	x.prun = x.prun[:0]
	kept := 0
	for f := fs; f < fs+fc; f++ {
		v := graph.VertexID(int32(binLE.Uint32(b.freq[uint64(f)*binFreqSize:])))
		x.prun = append(x.prun, v)
		if x.beyond(v) {
			kept++
		}
	}
	if kept == 0 {
		return d
	}

	out := &truss.Decomposition{
		Pattern:  d.Pattern,
		Vertices: make([]graph.VertexID, 0, len(d.Vertices)+kept),
		Freqs:    make([]float64, 0, len(d.Vertices)+kept),
	}
	k := 0
	for f, v := range x.prun {
		if !x.beyond(v) {
			continue
		}
		for ; k < len(d.Vertices) && d.Vertices[k] < v; k++ {
			out.Vertices, out.Freqs = append(out.Vertices, d.Vertices[k]), append(out.Freqs, d.Freqs[k])
		}
		freq := math.Float64frombits(binLE.Uint64(b.freq[uint64(fs+uint32(f))*binFreqSize+4:]))
		out.Vertices, out.Freqs = append(out.Vertices, v), append(out.Freqs, freq)
	}
	out.Vertices, out.Freqs = append(out.Vertices, d.Vertices[k:]...), append(out.Freqs, d.Freqs[k:]...)

	// The communities carried, and the ones inside the region, are whole
	// communities of the previous node: with its count recorded, the carried
	// ones are that count less the ones inside — the side an update is small
	// on; without it, the carried ones are counted. Either side's
	// communities are its vertices less the unions that join two of them
	// (every vertex lies on an edge of its side), in a forest over the
	// previous run's positions, which each edge's pair holds.
	prevComps := int(b.nodeU32(at, binNodeComponents))
	countKept := prevComps == 0
	side := int(fc) - kept
	if countKept {
		side = kept
	}
	var forest []uint32
	if side > 0 {
		forest = slices.Grow(x.forest[:0], int(fc))[:fc]
		x.forest = forest
		for i := range forest {
			forest[i] = uint32(i)
		}
	}
	find := func(i uint32) uint32 {
		for forest[i] != i {
			forest[i] = forest[forest[i]]
			i = forest[i]
		}
		return i
	}
	unions := 0

	// Decode every level into one array, keeping the edges outside the
	// region: both ends of an edge lie in one community, so one end tells.
	ls, lc := b.run(at, binNodeLevelStart)
	total := uint32(0)
	for l := ls; l < ls+lc; l++ {
		_, _, ec := b.levelAt(l)
		total += ec
	}
	edges := make([]graph.Edge, 0, total)
	k = 0
	for l := ls; l < ls+lc; l++ {
		alpha, es, ec := b.levelAt(l)
		pairs := b.pairs(es, ec)
		from := len(edges)
		if b.wide {
			edges = truss.AppendEdges[uint32](edges, x.prun, pairs)
		} else {
			edges = truss.AppendEdges[uint16](edges, x.prun, pairs)
		}
		level := edges[from:from]
		for n, e := range edges[from:] {
			beyond := x.beyond(e.U)
			if beyond {
				level = append(level, e)
			}
			if forest != nil && beyond == countKept {
				i, j := b.pairAt(pairs, n)
				if ri, rj := find(i), find(j); ri != rj {
					forest[rj] = ri
					unions++
				}
			}
		}
		edges = edges[:from+len(level)]
		if len(level) == 0 {
			continue
		}
		x.stats.Carried += len(level)
		for ; k < len(d.Levels) && d.Levels[k].Alpha < alpha; k++ {
			out.Levels = append(out.Levels, d.Levels[k])
		}
		if k < len(d.Levels) && d.Levels[k].Alpha == alpha {
			level = mergeEdges(d.Levels[k].Removed, level)
			k++
		}
		out.Levels = append(out.Levels, truss.Level{Alpha: alpha, Removed: level[:len(level):len(level)]})
	}
	out.Levels = append(out.Levels, d.Levels[k:]...)
	carried := side - unions
	if !countKept {
		carried = prevComps - carried
	}
	// A recorded count the previous levels contradict is not carried on.
	if carried >= 1 {
		out.Components = d.Components + carried
	}
	return out
}

// mergeEdges returns the union of two disjoint edge lists, each ascending by
// (U, V), ascending.
func mergeEdges(a, b []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if graph.CompareEdges(a[0], b[0]) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
