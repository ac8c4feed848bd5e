package tctree

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"themecomm/internal/core"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// cohesionTolerance is truss's tolerance: the grid below probes both sides of
// every threshold within it.
const cohesionTolerance = 1e-9

// shardViews returns the two read surfaces of one shard: the pointer subtree
// and its TCBIN encoding decoded in place.
// openEncoded encodes the subtree and opens the bytes as a heap-backed shard.
func openEncoded(tb testing.TB, root *Node) *BinShard {
	tb.Helper()
	enc, err := encodeShardBinary(root)
	if err != nil {
		tb.Fatalf("encodeShardBinary(%d): %v", root.Item, err)
	}
	bin, err := enc.Open()
	if err != nil {
		tb.Fatalf("DecodeBinShard(%d): %v", root.Item, err)
	}
	return bin
}

func shardViews(tb testing.TB, root *Node) map[string]ShardView {
	tb.Helper()
	return map[string]ShardView{"BinShard": openEncoded(tb, root), "NodeView": NewNodeView(root)}
}

// alphaGrid is 0, both sides of every distinct level threshold of the
// subtree — at most limit of them, evenly spaced — and a value past α*.
func alphaGrid(root *Node, limit int) []float64 {
	seen := map[float64]bool{}
	var thresholds []float64
	root.Walk(func(n *Node) {
		for _, l := range n.Decomp.Levels {
			if !seen[l.Alpha] {
				seen[l.Alpha] = true
				thresholds = append(thresholds, l.Alpha)
			}
		}
	})
	sort.Float64s(thresholds)
	grid := []float64{0, thresholds[len(thresholds)-1] + 1}
	step := max(1, (len(thresholds)+limit-1)/limit)
	for i := 0; i < len(thresholds); i += step {
		grid = append(grid, thresholds[i]-cohesionTolerance/2, thresholds[i]+cohesionTolerance/2)
	}
	return grid
}

// cohesionFromLevels recomputes a community's cohesion from the node's
// levels: the smallest live threshold holding one of its edges. A community
// is a connected component of the live edges, so an edge is its own exactly
// when one endpoint is.
func cohesionFromLevels(d *truss.Decomposition, vertices []graph.VertexID, alpha float64) float64 {
	member := make(map[graph.VertexID]bool, len(vertices))
	for _, v := range vertices {
		member[v] = true
	}
	for _, l := range d.Levels {
		if !truss.LevelLive(l.Alpha, alpha) {
			continue
		}
		for _, e := range l.Removed {
			if member[e.U] {
				return l.Alpha // levels ascend: the first hit is the minimum
			}
		}
	}
	return -1
}

// assertAnswerIsReference requires the flat records of a shard answer to be
// the reference communities — same themes, vertex lists and edge counts in
// the same order — with cohesions recomputed from the tree's levels.
func assertAnswerIsReference(t *testing.T, label string, tree *Tree, got ShardAnswer, want []core.Community, alpha float64) {
	t.Helper()
	if len(got.Communities) != len(want) {
		t.Fatalf("%s: %d communities, the reference has %d", label, len(got.Communities), len(want))
	}
	for i, w := range want {
		g := got.Communities[i]
		if !g.Pattern.Equal(w.Pattern) || !slices.Equal(g.Vertices, w.Vertices()) || g.Edges != w.Edges.Len() {
			t.Fatalf("%s: community %d = %v %v |E|=%d, the reference has %v %v |E|=%d",
				label, i, g.Pattern, g.Vertices, g.Edges, w.Pattern, w.Vertices(), w.Edges.Len())
		}
		if c := cohesionFromLevels(tree.Node(g.Pattern).Decomp, g.Vertices, alpha); g.Cohesion != c {
			t.Fatalf("%s: community %d (%v from %d) has cohesion %v, its levels say %v", label, i, g.Pattern, g.Vertices[0], g.Cohesion, c)
		}
	}
}

// TestReadKernelMatchesReferenceOnGeneratedDatasets is the differential test
// of the read path: on every dataset analogue, every shard, a grid of α on
// both sides of the shard's thresholds, sub-pattern and containment queries,
// what BinShard and NodeView answer is what the map-based reference —
// Tree.Query(...).Communities() on a tree holding just that shard — answers,
// record for record, counters included.
func TestReadKernelMatchesReferenceOnGeneratedDatasets(t *testing.T) {
	for _, name := range []string{"BK", "GW", "AMINER", "SYN"} {
		ds, err := gen.ByName(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		maxLen := 0
		if name == "SYN" {
			maxLen = 2 // as in TestTreeMatchesTCFIOnGeneratedDatasets
		}
		tree := Build(ds.Network, BuildOptions{MaxDepth: maxLen})
		universe := ds.Network.Items()
		rng := rand.New(rand.NewSource(5))
		communities := 0
		for _, root := range tree.Root().Children {
			// The reference sees one shard: breadth-first order over it is the
			// shard traversal's order.
			ref := &Tree{root: &Node{Children: []*Node{root}}}
			var sub itemset.Itemset
			for _, it := range universe {
				if it == root.Item || rng.Intn(3) == 0 {
					sub = sub.Add(it)
				}
			}
			var deep itemset.Itemset // a pattern of the shard to ask supersets of
			root.Walk(func(n *Node) {
				if n.Pattern.Len() == 2 && deep == nil {
					deep = n.Pattern
				}
			})
			views := shardViews(t, root)
			for _, alpha := range alphaGrid(root, 12) {
				// The reference answers once per α; both views are held to it.
				type refCase struct {
					q                  itemset.Itemset
					containing         bool
					want               []core.Community
					retrieved, visited int
				}
				whole := ref.Query(universe, alpha)
				var cases []refCase
				for _, q := range []itemset.Itemset{universe, sub} {
					qr := whole
					if len(q) != len(universe) {
						qr = ref.Query(q, alpha)
					}
					cases = append(cases, refCase{q: q, want: qr.Communities(), retrieved: qr.RetrievedNodes, visited: qr.VisitedNodes})
				}
				for _, q := range []itemset.Itemset{itemset.New(root.Item), deep} {
					if q == nil {
						continue
					}
					rc := refCase{q: q, containing: true}
					for _, tr := range whole.Trusses {
						if q.SubsetOf(tr.Pattern) {
							rc.retrieved++
							for _, comp := range tr.Communities() {
								rc.want = append(rc.want, core.Community{Pattern: tr.Pattern, Edges: comp})
							}
						}
					}
					cases = append(cases, rc)
				}
				for kind, view := range views {
					for _, rc := range cases {
						label := fmt.Sprintf("%s shard %d α=%v %s q=%v containing=%v", name, root.Item, alpha, kind, rc.q, rc.containing)
						var got ShardAnswer
						if rc.containing {
							got = view.QueryContaining(rc.q, alpha)
						} else if got = view.QuerySub(rc.q, alpha, nil); got.Visited != rc.visited {
							t.Fatalf("%s: visited %d nodes, the reference %d", label, got.Visited, rc.visited)
						}
						if got.Retrieved != rc.retrieved {
							t.Fatalf("%s: retrieved %d nodes, the reference %d", label, got.Retrieved, rc.retrieved)
						}
						assertAnswerIsReference(t, label, tree, got, rc.want, alpha)
						communities += len(got.Communities)
					}
				}
			}
		}
		if communities < 100 {
			t.Fatalf("%s: only %d communities compared", name, communities)
		}
	}
}

// TestHostileEdgesReachTheReadKernel checks the one hostile edge that still
// passes DecodeBinShard — an edge stored in two levels, well-formed pair by
// pair; self-loops and stray endpoints are refused as pairs — on every
// fixture shard whose root has two levels: the root's first edge is stored
// again in its last level, the shard opens, and the traversal answers it:
// every stored edge counted, the copy as well, every vertex in one
// community, the same vertices as the shard without the copy.
func TestHostileEdgesReachTheReadKernel(t *testing.T) {
	_, roots, _, _ := binShardFixtures(t, 19)
	tried := 0
	for _, root := range roots {
		levels := root.Decomp.Levels
		if len(levels) < 2 {
			continue
		}
		tried++
		d := *root.Decomp
		d.Levels = slices.Clone(levels)
		last := &d.Levels[len(d.Levels)-1]
		last.Removed = append(slices.Clone(last.Removed), levels[0].Removed[0])
		slices.SortFunc(last.Removed, graph.CompareEdges)
		hostile := &Node{Item: root.Item, Pattern: root.Pattern, Decomp: &d}

		want := map[graph.VertexID]bool{}
		for _, c := range NewNodeView(root).QuerySub(itemset.New(root.Item), 0, nil).Communities {
			for _, v := range c.Vertices {
				want[v] = true
			}
		}
		got := openEncoded(t, hostile).QuerySub(itemset.New(root.Item), 0, nil)
		edges, seen := 0, map[graph.VertexID]bool{}
		for _, c := range got.Communities {
			edges += c.Edges
			for _, v := range c.Vertices {
				if seen[v] {
					t.Fatalf("shard %d: vertex %d is in two communities", root.Item, v)
				}
				seen[v] = true
			}
		}
		if edges != root.Decomp.NumEdges()+1 {
			t.Fatalf("shard %d: communities hold %d edges, the root stores %d and one copy", root.Item, edges, root.Decomp.NumEdges())
		}
		if !maps.Equal(seen, want) {
			t.Fatalf("shard %d: the copy changes the vertices answered: %d, want %d", root.Item, len(seen), len(want))
		}
	}
	if tried == 0 {
		t.Fatal("no shard root has two levels to store an edge in")
	}
}

// TestQuerySubAllocatesPerRetrievedNode pins what a traversal may allocate:
// a pattern and one vertex array per retrieved node plus the growth of its
// queue and answer — a small constant per node however many edges the node
// holds, where the map-based reconstruction paid several per edge.
func TestQuerySubAllocatesPerRetrievedNode(t *testing.T) {
	ds, err := gen.AMiner(0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree := Build(ds.Network, BuildOptions{})
	universe := ds.Network.Items()
	root := tree.Root().Children[0]
	for _, c := range tree.Root().Children {
		if statsOf(c).Nodes > statsOf(root).Nodes {
			root = c
		}
	}
	edges := 0
	root.Walk(func(n *Node) { edges += n.Decomp.NumEdges() })
	for kind, view := range shardViews(t, root) {
		retrieved := view.QuerySub(universe, 0, nil).Retrieved
		if retrieved < 20 || edges < 10*retrieved {
			t.Fatalf("shard %d retrieves %d nodes holding %d edges: too small to tell nodes from edges", root.Item, retrieved, edges)
		}
		allocs := testing.AllocsPerRun(20, func() { view.QuerySub(universe, 0, nil) })
		if limit := float64(2*retrieved + 32); allocs > limit {
			t.Fatalf("%s.QuerySub: %.0f allocations for %d retrieved nodes (%d edges), want at most %.0f", kind, allocs, retrieved, edges, limit)
		}
	}
}

// TestConcurrentTraversalsShareNoScratch runs traversals of every shard from
// several goroutines at once, as the engine's worker pool does: each borrows
// pooled scratch, and every answer must equal the one computed alone — under
// -race, a buffer two traversals share or an answer that aliases scratch
// shows up here.
func TestConcurrentTraversalsShareNoScratch(t *testing.T) {
	tree, roots, bufs, entries := binShardFixtures(t, 19)
	full := make(itemset.Itemset, 0, len(roots))
	for _, r := range roots {
		full = append(full, r.Item)
	}
	var views []ShardView
	var want []ShardAnswer
	for i, root := range roots {
		bin, err := DecodeBinShard(bufs[i], entries[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []ShardView{bin, NewNodeView(root)} {
			views = append(views, v)
			want = append(want, v.QuerySub(full, treeMaxAlpha(tree)/4, nil))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(views)
				got := views[k].QuerySub(full, treeMaxAlpha(tree)/4, nil)
				if len(got.Communities) != len(want[k].Communities) {
					t.Errorf("view %d: %d communities, alone %d", k, len(got.Communities), len(want[k].Communities))
					return
				}
				for j, w := range want[k].Communities {
					if g := got.Communities[j]; !slices.Equal(g.Vertices, w.Vertices) || g.Edges != w.Edges || g.Cohesion != w.Cohesion {
						t.Errorf("view %d community %d = %+v, alone %+v", k, j, g, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
