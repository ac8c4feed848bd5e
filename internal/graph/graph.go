// Package graph provides the undirected-graph substrate of the database
// network: adjacency storage, BFS traversal, edge sets, and the classic
// k-truss baseline that the pattern truss of the paper generalizes
// (Section 3.2).
//
// Vertices are dense integer identifiers in [0, NumVertices). Edges are
// undirected, simple (no self-loops, no parallel edges).
package graph

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// VertexID identifies a vertex of a graph or database network.
type VertexID int32

// MaxVertices bounds the vertex count of a network: vertex ids are 32-bit,
// so every id lies in [0, math.MaxInt32].
const MaxVertices = math.MaxInt32 + 1

// Vertex returns v as a vertex id, or an error when v lies outside
// [0, math.MaxInt32]: an outside id is refused, never wrapped onto another
// vertex. Every id read from a file, a request or a flag passes through it.
func Vertex(v int) (VertexID, error) {
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("vertex id %d outside [0, %d]", v, math.MaxInt32)
	}
	return VertexID(v), nil
}

// ParseVertex parses a decimal vertex id (see Vertex).
func ParseVertex(field string) (VertexID, error) {
	v, err := strconv.Atoi(field)
	if err != nil {
		return 0, fmt.Errorf("invalid vertex id %q", field)
	}
	return Vertex(v)
}

// CheckedEdge returns the canonical edge between u and v, or an error when
// either lies outside the vertex id range (see Vertex) or they are one
// vertex.
func CheckedEdge(u, v int) (Edge, error) {
	if u == v {
		return Edge{}, fmt.Errorf("edge (%d,%d) is a self-loop", u, v)
	}
	a, err := Vertex(u)
	if err != nil {
		return Edge{}, fmt.Errorf("edge (%d,%d): %w", u, v, err)
	}
	b, err := Vertex(v)
	if err != nil {
		return Edge{}, fmt.Errorf("edge (%d,%d): %w", u, v, err)
	}
	return EdgeOf(a, b), nil
}

// CheckVertexCount reports an error when a network of n vertices would hold
// an id outside the vertex id range, or n is negative.
func CheckVertexCount(n int) error {
	if n < 0 || n > MaxVertices {
		return fmt.Errorf("vertex count %d outside [0, %d]", n, MaxVertices)
	}
	return nil
}

// Edge is an undirected edge stored in canonical orientation U < V.
type Edge struct {
	U, V VertexID
}

// EdgeOf returns the canonical edge between a and b. It panics on self-loops
// because the data model forbids them.
func EdgeOf(a, b VertexID) Edge {
	if a == b {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", a))
	}
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// Key packs the edge into a single comparable 64-bit key.
func (e Edge) Key() uint64 { return uint64(uint32(e.U))<<32 | uint64(uint32(e.V)) }

// EdgeFromKey is the inverse of Edge.Key.
func EdgeFromKey(k uint64) Edge {
	return Edge{U: VertexID(uint32(k >> 32)), V: VertexID(uint32(k))}
}

// String renders the edge as "(u,v)".
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a static simple undirected graph with a fixed vertex count.
// Build one with NewBuilder or directly with New plus AddEdge.
type Graph struct {
	adj [][]VertexID // sorted neighbor lists
	m   int          // number of edges
	// sorted reports whether adjacency lists are currently sorted; AddEdge
	// appends and defers sorting until the next read that needs it.
	sorted bool
}

// New returns a graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]VertexID, n), sorted: true}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.m }

// AddEdge inserts the undirected edge (a, b). Self-loops are rejected with an
// error; adding an edge that already exists is a harmless no-op.
func (g *Graph) AddEdge(a, b VertexID) error {
	if a == b {
		return fmt.Errorf("graph: self-loop on vertex %d rejected", a)
	}
	if err := g.checkVertex(a); err != nil {
		return err
	}
	if err := g.checkVertex(b); err != nil {
		return err
	}
	if g.hasEdgeSlow(a, b) {
		return nil
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.m++
	g.sorted = false
	return nil
}

// MustAddEdge is AddEdge but panics on error. Useful in tests and generators
// where the inputs are known valid.
func (g *Graph) MustAddEdge(a, b VertexID) {
	if err := g.AddEdge(a, b); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge (a, b), reporting whether it was
// present. Removing an absent edge (or one with an out-of-range endpoint) is
// a harmless no-op.
func (g *Graph) RemoveEdge(a, b VertexID) bool {
	if a == b || g.checkVertex(a) != nil || g.checkVertex(b) != nil {
		return false
	}
	if !g.hasEdgeSlow(a, b) {
		return false
	}
	g.adj[a] = removeNeighbor(g.adj[a], b)
	g.adj[b] = removeNeighbor(g.adj[b], a)
	g.m--
	return true
}

// removeNeighbor deletes the first occurrence of w from l, preserving order so
// a sorted list stays sorted.
func removeNeighbor(l []VertexID, w VertexID) []VertexID {
	for i, x := range l {
		if x == w {
			return append(l[:i], l[i+1:]...)
		}
	}
	return l
}

// AddVertices grows the graph by n isolated vertices, returning the new
// vertex count. A growing database network gains vertices this way before
// edges and transactions reference them.
func (g *Graph) AddVertices(n int) int {
	if n > 0 {
		g.adj = append(g.adj, make([][]VertexID, n)...)
	}
	return len(g.adj)
}

func (g *Graph) checkVertex(v VertexID) error {
	if v < 0 || int(v) >= len(g.adj) {
		return fmt.Errorf("graph: vertex %d out of range [0,%d)", v, len(g.adj))
	}
	return nil
}

func (g *Graph) hasEdgeSlow(a, b VertexID) bool {
	// Scan the smaller adjacency list.
	la, lb := g.adj[a], g.adj[b]
	if len(lb) < len(la) {
		la, b = lb, a
	}
	for _, x := range la {
		if x == b {
			return true
		}
	}
	return false
}

// Sort sorts every adjacency list. Read accessors call it lazily; callers
// that are about to read the graph from multiple goroutines must call it (or
// any read accessor) once beforehand, because the lazy sort is not
// synchronized.
func (g *Graph) Sort() { g.ensureSorted() }

// ensureSorted sorts all adjacency lists; reads that rely on sorted order call
// it first.
func (g *Graph) ensureSorted() {
	if g.sorted {
		return
	}
	for _, l := range g.adj {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	g.sorted = true
}

// HasEdge reports whether the edge (a, b) exists.
func (g *Graph) HasEdge(a, b VertexID) bool {
	if a == b || g.checkVertex(a) != nil || g.checkVertex(b) != nil {
		return false
	}
	g.ensureSorted()
	l := g.adj[a]
	i := sort.Search(len(l), func(i int) bool { return l[i] >= b })
	return i < len(l) && l[i] == b
}

// Degree returns the degree of v.
func (g *Graph) Degree(v VertexID) int {
	if g.checkVertex(v) != nil {
		return 0
	}
	return len(g.adj[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice must not
// be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	if g.checkVertex(v) != nil {
		return nil
	}
	g.ensureSorted()
	return g.adj[v]
}

// Edges returns every edge of the graph in canonical orientation, sorted by
// (U, V).
func (g *Graph) Edges() []Edge {
	g.ensureSorted()
	out := make([]Edge, 0, g.m)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if VertexID(u) < v {
				out = append(out, Edge{U: VertexID(u), V: v})
			}
		}
	}
	return out
}

// BFSEdges traverses the graph breadth-first from seed and returns up to
// maxEdges edges in the order they are discovered (tree and cross edges of the
// already-visited frontier). It is the sampling primitive of Section 7.1 of
// the paper. If maxEdges <= 0 all reachable edges are returned.
func (g *Graph) BFSEdges(seed VertexID, maxEdges int) []Edge {
	if g.checkVertex(seed) != nil {
		return nil
	}
	if maxEdges <= 0 {
		maxEdges = g.m
	}
	g.ensureSorted()
	visited := make(map[VertexID]bool, maxEdges)
	seenEdge := make(map[uint64]bool, maxEdges)
	var out []Edge
	queue := []VertexID{seed}
	visited[seed] = true
	for len(queue) > 0 && len(out) < maxEdges {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			e := EdgeOf(u, w)
			if !seenEdge[e.Key()] {
				seenEdge[e.Key()] = true
				out = append(out, e)
				if len(out) >= maxEdges {
					break
				}
			}
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return out
}

// IntersectSorted returns the intersection of two ascending sorted vertex
// slices.
func IntersectSorted(a, b []VertexID) []VertexID {
	var out []VertexID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// SortVertices sorts a vertex slice in place in ascending order.
func SortVertices(vs []VertexID) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}
