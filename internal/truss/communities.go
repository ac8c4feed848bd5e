package truss

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// This file is the read kernel: the served path's counterpart of the peeler.
// A query retrieves decompositions, and what it answers with is their theme
// communities at α_q; the kernel derives those straight from the removal
// levels and the vertex set of C*_p(0) as the index stores them — the vertex
// set a sorted run, each level's edges pairs of positions in it — without
// rebuilding the Truss a miner would hand out. Truss.Communities stays the
// reference the kernel is tested against and shares no code with it.

// Community is one theme community (Definition 3.5) as a flat record: what
// the serving layers merge, rank, cache and render. Records are immutable
// once returned; the communities of one decomposition share Pattern.
type Community struct {
	// Pattern is the theme p.
	Pattern itemset.Itemset
	// Vertices are the community's vertices, ascending.
	Vertices []graph.VertexID
	// Edges is the number of edges of the community.
	Edges int
	// Cohesion is the largest threshold at which the community survives
	// intact: the minimum removal threshold over its edges in L_p. Raising
	// α_q to this value removes at least one of them.
	Cohesion float64
}

// LiveLevels returns the levels that belong to C*_p(alpha): thresholds
// ascend, so they are the suffix starting at the first level LevelLive
// accepts.
func (d *Decomposition) LiveLevels(alpha float64) []Level {
	if d == nil {
		return nil
	}
	live := d.Levels
	for len(live) > 0 && !LevelLive(live[0].Alpha, alpha) {
		live = live[1:]
	}
	return live
}

// Position is the width of a vertex position in the kernel's numbering: a
// node's edges are stored as pairs of positions into its vertex run, u16
// when every run of the shard fits in 16 bits and u32 otherwise. The kernel
// is one generic routine over the width.
type Position interface{ uint16 | uint32 }

// PairLevel is a removal level in the kernel's numbering: its threshold and
// its edges as (i, j) pairs of positions into the node's vertex run, i < j,
// each position a little-endian P, ascending by (i, j) — the bytes a TCBIN
// level's edge run holds (docs/FORMAT.md). Positions ascend with the
// vertices, so the pairs are the level's edges in (U, V) order.
type PairLevel struct {
	Alpha float64
	Pairs []byte
}

// AppendPairs appends each edge list of levels to dst in turn, as
// PairLevel.Pairs holds them: each edge as the positions of its endpoints in
// run, which must be strictly ascending. The edges of a list must ascend by
// (U, V), as a level holds them. It fails when an endpoint is missing from
// run, or an edge is not ascending (U < V) or out of order within its list,
// which Decompose never produces.
//
// The run is numbered once for all the lists (graph.NumberRun), so a node's
// levels cost one lookup per endpoint and no search.
func AppendPairs[P Position](dst []byte, run []graph.VertexID, levels ...[]graph.Edge) ([]byte, error) {
	num := graph.NumberRun(run)
	defer num.Release()
	for _, edges := range levels {
		// next is one past the previous pair, packed (i, j): the least the
		// next pair may be.
		var next uint64
		for _, e := range edges {
			i, iok := num.Index(e.U)
			j, jok := num.Index(e.V)
			key := uint64(i)<<32 | uint64(j)
			if !iok || !jok || i >= j || key < next {
				return dst, fmt.Errorf("truss: edge %v has no position pair in a run of %d vertices", e, len(run))
			}
			next = key + 1
			if pairSize[P]() == 4 {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(i))
				dst = binary.LittleEndian.AppendUint16(dst, uint16(j))
			} else {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
				dst = binary.LittleEndian.AppendUint32(dst, uint32(j))
			}
		}
	}
	return dst, nil
}

// AppendEdges appends the edges pairs holds, numbered over run, to dst: the
// inverse of AppendPairs. Every position must lie in run, as ValidPairs
// checks.
func AppendEdges[P Position](dst []graph.Edge, run []graph.VertexID, pairs []byte) []graph.Edge {
	ps := pairSize[P]()
	for p := pairs; len(p) >= ps; p = p[ps:] {
		i, j := pair[P](p)
		dst = append(dst, graph.Edge{U: run[i], V: run[j]})
	}
	return dst
}

// ValidPairs reports whether pairs is what Split trusts over a run of n
// vertices: whole pairs, each i < j < n, strictly ascending by (i, j). It is
// one pass and three compares per pair, so a shard can be checked as it is
// opened.
func ValidPairs[P Position](pairs []byte, n uint32) bool {
	ps := pairSize[P]()
	if len(pairs)%ps != 0 {
		return false
	}
	// next is one past the previous pair, packed (i, j): the least the next
	// pair may be.
	var next uint64
	for p := pairs; len(p) >= ps; p = p[ps:] {
		i, j := pair[P](p)
		key := uint64(i)<<32 | uint64(j)
		if j >= n || i >= j || key < next {
			return false
		}
		next = key + 1
	}
	return true
}

// Splitter is the scratch space of Split. The zero value is ready; a
// Splitter is reused across calls (its forest grows to the largest run it
// has split and is never retained by a result) but not shared between
// goroutines.
type Splitter struct {
	// forest is the union-find forest over local vertices: local vertex i
	// is the vertex at position i of the run.
	forest []splitNode
}

// splitNode is one local vertex of the forest. Everything but parent is
// meaningful at roots only.
type splitNode struct {
	parent uint32
	// size is the number of vertices below the root, edges the number of
	// edges united into it, and slot its community's position in the output,
	// offset by one (zero is "not numbered yet"). A root without edges is a
	// vertex no live edge touches.
	size, edges, slot uint32
	// cohesion is the smallest threshold among the root's edges.
	cohesion float64
}

// Split appends to out the theme communities of the maximal pattern truss
// whose live removal levels are given — its maximal connected subgraphs —
// ordered by smallest vertex, and returns the extended slice. run is the
// node's vertex set, strictly ascending: Decomposition.Vertices, or the
// frequency run of a TCBIN node record. It lists every vertex
// of C*_p(0), and any vertex no live edge touches — one the peeling at α_q
// has already removed — simply belongs to no community. live holds the
// levels live at α_q in ascending threshold order, their edges numbered by
// run (PairLevel).
//
// The run is the kernel's numbering and the pairs are already in it, so the
// pass searches nothing: a union-find over positions, one find per pair and
// one per run of pairs sharing i, then one in-order pass over the run that
// emits the vertices a live edge touched — O(n + m) for m live edges on a
// run of n, near-linear in the unions, one allocation (the vertex lists of
// all the communities, carved from one array) and none per edge.
//
// Split trusts the pairs as far as DecodeBinShard checks them: every
// position below len(run) — a larger one panics — and i < j. A pair stored
// in two levels counts twice, where the map-based reference would fold it.
func Split[P Position](s *Splitter, pattern itemset.Itemset, run []graph.VertexID, live []PairLevel, out []Community) []Community {
	touched := unite[P](s, len(run), live)
	if touched == 0 {
		return out
	}

	// Local identifiers ascend with the vertices, so the first vertex that
	// reaches a root is its community's smallest: numbering roots in that
	// order is the smallest-vertex order, and filling in the same pass
	// leaves every vertex list ascending.
	f := s.forest
	vertices := make([]graph.VertexID, touched)
	first, next := len(out), 0
	for i, v := range run {
		r := &f[s.find(uint32(i))]
		if r.edges == 0 {
			continue
		}
		if r.slot == 0 {
			size := int(r.size)
			out = append(out, Community{
				Pattern:  pattern,
				Vertices: vertices[next : next : next+size],
				Edges:    int(r.edges),
				Cohesion: r.cohesion,
			})
			next += size
			r.slot = uint32(len(out) - first)
		}
		c := &out[first+int(r.slot)-1]
		c.Vertices = append(c.Vertices, v)
	}
	return out
}

// unite builds the forest over n local vertices and unites the endpoints of
// every live pair. It returns the number of vertices the pairs touch.
func unite[P Position](s *Splitter, n int, live []PairLevel) (touched int) {
	f := slices.Grow(s.forest[:0], n)[:n]
	s.forest = f
	for i := range f {
		f[i] = splitNode{parent: uint32(i), size: 1, cohesion: math.Inf(1)}
	}
	ps := pairSize[P]()
	for _, l := range live {
		// A level ascends by (i, j): consecutive pairs mostly share i, and
		// one find serves all of them. a is i's root: until i changes only
		// pairs at i unite anything, so the root each of them leaves is i's
		// root for the next. No position is ^0, so the first pair finds.
		a, at := uint32(0), ^uint32(0)
		for p := l.Pairs; len(p) >= ps; p = p[ps:] {
			i, j := pair[P](p)
			if i != at {
				a, at = s.find(i), i
			}
			b := s.find(j)
			// A root without edges is a vertex no edge has touched yet.
			if f[a].edges == 0 {
				touched++
			}
			if a != b {
				if f[b].edges == 0 {
					touched++
				}
				if f[a].size < f[b].size {
					a, b = b, a
				}
				f[b].parent = a
				f[a].size += f[b].size
				f[a].edges += f[b].edges
				f[a].cohesion = min(f[a].cohesion, f[b].cohesion)
			}
			f[a].edges++
			f[a].cohesion = min(f[a].cohesion, l.Alpha)
		}
	}
	return touched
}

// pairSize is the size of a position pair of width P in bytes.
func pairSize[P Position]() int { return 2 * int(unsafe.Sizeof(P(0))) }

// pair reads the position pair at the head of p.
func pair[P Position](p []byte) (i, j uint32) {
	if pairSize[P]() == 4 {
		return uint32(binary.LittleEndian.Uint16(p)), uint32(binary.LittleEndian.Uint16(p[2:]))
	}
	return binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:])
}

// find returns the root of local vertex i, halving the path on the way.
func (s *Splitter) find(i uint32) uint32 {
	f := s.forest
	for f[i].parent != i {
		f[i].parent = f[f[i].parent].parent
		i = f[i].parent
	}
	return i
}
