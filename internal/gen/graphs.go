// Package gen generates synthetic database networks for tests, examples and
// the benchmark harness. It provides the random-graph substrates the paper's
// SYN dataset needs (Section 7), plus generators that emulate the structural
// properties of the paper's real datasets: location-based check-in networks
// (Brightkite, Gowalla) and a co-author network (AMINER) — stand-ins for
// datasets that cannot be redistributed, so absolute numbers differ from the
// paper while the shapes it reports are preserved.
package gen

import (
	"fmt"
	"math/rand"

	"themecomm/internal/graph"
)

// ErdosRenyi generates a simple undirected G(n, m) random graph with exactly m
// edges (or the maximum possible if m exceeds it), using the supplied random
// source for reproducibility.
func ErdosRenyi(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
	if n < 2 {
		return g
	}
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	for g.NumEdges() < m {
		a := graph.VertexID(rng.Intn(n))
		b := graph.VertexID(rng.Intn(n))
		if a == b {
			continue
		}
		g.MustAddEdge(a, b)
	}
	return g
}

// BarabasiAlbert generates a preferential-attachment graph: starting from a
// small clique of attach+1 vertices, every new vertex attaches to `attach`
// existing vertices chosen proportionally to their degree. The result has the
// long-tailed degree distribution typical of social networks.
func BarabasiAlbert(rng *rand.Rand, n, attach int) *graph.Graph {
	if attach < 1 {
		attach = 1
	}
	g := graph.New(n)
	if n <= attach {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
		return g
	}
	// Seed clique.
	targets := make([]graph.VertexID, 0, 2*n*attach)
	for u := 0; u <= attach; u++ {
		for v := u + 1; v <= attach; v++ {
			g.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
			targets = append(targets, graph.VertexID(u), graph.VertexID(v))
		}
	}
	for v := attach + 1; v < n; v++ {
		chosen := make(map[graph.VertexID]bool, attach)
		for len(chosen) < attach {
			var t graph.VertexID
			if len(targets) == 0 || rng.Float64() < 0.05 {
				t = graph.VertexID(rng.Intn(v))
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if int(t) == v {
				continue
			}
			chosen[t] = true
		}
		for t := range chosen {
			g.MustAddEdge(graph.VertexID(v), t)
			targets = append(targets, graph.VertexID(v), t)
		}
	}
	return g
}

// CommunityGraphConfig configures CommunityGraph.
type CommunityGraphConfig struct {
	// Vertices is the total number of vertices.
	Vertices int
	// Communities is the number of planted communities. Vertices are assigned
	// round-robin, so community sizes differ by at most one.
	Communities int
	// IntraDegree is the target average number of intra-community neighbors
	// per vertex.
	IntraDegree float64
	// InterDegree is the target average number of cross-community neighbors
	// per vertex.
	InterDegree float64
}

// CommunityGraph generates a planted-partition graph: dense connections inside
// communities and sparse connections across. It returns the graph and the
// community assignment of each vertex. This is the substrate used by the
// check-in and co-author dataset generators, because theme communities only
// exist when the graph has cohesive (triangle-rich) groups.
func CommunityGraph(rng *rand.Rand, cfg CommunityGraphConfig) (*graph.Graph, []int, error) {
	if cfg.Vertices <= 0 {
		return nil, nil, fmt.Errorf("gen: CommunityGraph needs a positive vertex count, got %d", cfg.Vertices)
	}
	if cfg.Communities <= 0 {
		return nil, nil, fmt.Errorf("gen: CommunityGraph needs a positive community count, got %d", cfg.Communities)
	}
	n := cfg.Vertices
	k := cfg.Communities
	g := graph.New(n)
	assign := make([]int, n)
	members := make([][]graph.VertexID, k)
	for v := 0; v < n; v++ {
		c := v % k
		assign[v] = c
		members[c] = append(members[c], graph.VertexID(v))
	}

	// Intra-community edges.
	for _, ms := range members {
		if len(ms) < 2 {
			continue
		}
		want := int(cfg.IntraDegree*float64(len(ms))/2 + 0.5)
		maxEdges := len(ms) * (len(ms) - 1) / 2
		if want > maxEdges {
			want = maxEdges
		}
		// Always include a Hamiltonian-style cycle for connectivity, then add
		// random chords until the quota is met.
		added := 0
		for i := range ms {
			if added >= want {
				break
			}
			j := (i + 1) % len(ms)
			if ms[i] != ms[j] && !g.HasEdge(ms[i], ms[j]) {
				g.MustAddEdge(ms[i], ms[j])
				added++
			}
		}
		// Random chords; the attempt cap guards against pathological collision
		// rates in tiny, nearly saturated communities.
		for attempts := 0; added < want && attempts < 50*want+100; attempts++ {
			a := ms[rng.Intn(len(ms))]
			b := ms[rng.Intn(len(ms))]
			if a == b || g.HasEdge(a, b) {
				continue
			}
			g.MustAddEdge(a, b)
			added++
		}
	}

	// Inter-community edges.
	wantInter := int(cfg.InterDegree * float64(n) / 2)
	for i := 0; i < wantInter; i++ {
		a := graph.VertexID(rng.Intn(n))
		b := graph.VertexID(rng.Intn(n))
		if a == b || assign[a] == assign[b] || g.HasEdge(a, b) {
			continue
		}
		g.MustAddEdge(a, b)
	}
	return g, assign, nil
}
