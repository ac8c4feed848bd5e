package tctree

import (
	"math"
	"math/rand"
	"testing"

	"themecomm/internal/core"
	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func randomNetwork(rng *rand.Rand, n, m, items, maxTx int) *dbnet.Network {
	nw := dbnet.New(n)
	for i := 0; i < m; i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			nw.MustAddEdge(a, b)
		}
	}
	for v := 0; v < n; v++ {
		ntx := 1 + rng.Intn(maxTx)
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
	return nw
}

func TestBuildOnPaperExample(t *testing.T) {
	nw := dbnet.PaperExample()
	tree := Build(nw, BuildOptions{})
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.NumNodes() == 0 {
		t.Fatalf("tree should index at least the pattern p")
	}
	node := tree.Node(dbnet.PaperExampleP)
	if node == nil {
		t.Fatalf("pattern p should be indexed")
	}
	// The non-trivial range of α for p ends at 0.3 (the v7-v9 triangle).
	if !approx(node.Decomp.MaxAlpha(), 0.3) {
		t.Fatalf("MaxAlpha of p = %v, want 0.3", node.Decomp.MaxAlpha())
	}
	// Querying at α=0.1 must retrieve the same communities the miner finds.
	qr := tree.Query(dbnet.PaperExampleP, 0.1)
	if qr.RetrievedNodes != 1 || len(qr.Trusses) != 1 {
		t.Fatalf("query retrieved %d nodes, want 1", qr.RetrievedNodes)
	}
	comms := qr.Communities()
	if len(comms) != 2 {
		t.Fatalf("expected 2 theme communities, got %d", len(comms))
	}
	if tree.String() == "" || tree.Depth() < 1 {
		t.Fatalf("tree accessors broken")
	}
}

func TestTreeMatchesMiningAcrossAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		nw := randomNetwork(rng, 14, 32, 4, 4)
		tree := Build(nw, BuildOptions{})
		if err := tree.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		alphas := []float64{0, 0.15, 0.4, 0.9, 1.7}
		for _, alpha := range alphas {
			want := core.TCFI(nw, core.Options{Alpha: alpha})
			got := tree.MiningResult(alpha)
			if !got.Equal(want) {
				t.Fatalf("trial %d α=%v: TC-Tree answer (NP=%d) differs from TCFI (NP=%d)",
					trial, alpha, got.NumPatterns(), want.NumPatterns())
			}
		}
		// The number of indexed nodes equals NP at α=0.
		if want := core.TCFI(nw, core.Options{Alpha: 0}); want.NumPatterns() != tree.NumNodes() {
			t.Fatalf("trial %d: tree has %d nodes, mining found %d patterns", trial, tree.NumNodes(), want.NumPatterns())
		}
	}
}

func TestQueryByPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nw := randomNetwork(rng, 16, 36, 5, 4)
	tree := Build(nw, BuildOptions{})
	full := tree.QueryByAlpha(0)

	// Querying by the full item universe retrieves every node.
	if full.RetrievedNodes != tree.NumNodes() {
		t.Fatalf("QueryByAlpha(0) retrieved %d of %d nodes", full.RetrievedNodes, tree.NumNodes())
	}

	// Querying by a specific pattern retrieves exactly its indexed sub-patterns.
	for _, q := range tree.Patterns() {
		qr := tree.QueryByPattern(q)
		for _, tr := range qr.Trusses {
			if !tr.Pattern.SubsetOf(q) {
				t.Fatalf("retrieved pattern %v is not a sub-pattern of %v", tr.Pattern, q)
			}
		}
		want := 0
		for _, p := range tree.Patterns() {
			if p.SubsetOf(q) {
				want++
			}
		}
		if qr.RetrievedNodes != want {
			t.Fatalf("query %v retrieved %d nodes, want %d", q, qr.RetrievedNodes, want)
		}
	}

	// Querying a pattern with no indexed sub-pattern returns nothing.
	empty := tree.QueryByPattern(itemset.New(4242))
	if empty.RetrievedNodes != 0 || len(empty.Trusses) != 0 {
		t.Fatalf("query of unknown pattern should retrieve nothing")
	}
}

func TestQueryByAlphaMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	nw := randomNetwork(rng, 16, 40, 4, 4)
	tree := Build(nw, BuildOptions{})
	maxAlpha := tree.MaxAlpha()
	if maxAlpha <= 0 {
		t.Skipf("degenerate network with no trusses")
	}
	prev := tree.QueryByAlpha(0).RetrievedNodes
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		cur := tree.QueryByAlpha(maxAlpha * frac).RetrievedNodes
		if cur > prev {
			t.Fatalf("retrieved nodes must not grow with α: %d then %d", prev, cur)
		}
		prev = cur
	}
	if got := tree.QueryByAlpha(maxAlpha).RetrievedNodes; got != 0 {
		t.Fatalf("querying at MaxAlpha should retrieve nothing, got %d", got)
	}
}

func TestBuildRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nw := randomNetwork(rng, 14, 30, 4, 5)
	tree := Build(nw, BuildOptions{MaxDepth: 1})
	if tree.Depth() > 1 {
		t.Fatalf("MaxDepth=1 produced depth %d", tree.Depth())
	}
	unbounded := Build(nw, BuildOptions{})
	if unbounded.Depth() > 1 {
		if tree.NumNodes() >= unbounded.NumNodes() {
			t.Fatalf("bounded tree should have fewer nodes")
		}
	}
	if got := len(tree.PatternsAtDepth(1)); got != tree.NumNodes() {
		t.Fatalf("PatternsAtDepth(1) = %d, want %d", got, tree.NumNodes())
	}
}

func TestBuildSerialVsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	nw := randomNetwork(rng, 16, 36, 5, 4)
	serial := Build(nw, BuildOptions{Parallelism: 1})
	parallel := Build(nw, BuildOptions{Parallelism: 4})
	if serial.NumNodes() != parallel.NumNodes() {
		t.Fatalf("serial and parallel builds disagree: %d vs %d nodes", serial.NumNodes(), parallel.NumNodes())
	}
	if !serial.MiningResult(0).Equal(parallel.MiningResult(0)) {
		t.Fatalf("serial and parallel builds index different trusses")
	}
}

func TestNodeLookup(t *testing.T) {
	nw := dbnet.PaperExample()
	tree := Build(nw, BuildOptions{})
	if tree.Node(itemset.New()) != nil {
		t.Fatalf("looking up the empty pattern should return nil")
	}
	if tree.Node(itemset.New(987654)) != nil {
		t.Fatalf("looking up an unknown pattern should return nil")
	}
	for _, p := range tree.Patterns() {
		n := tree.Node(p)
		if n == nil || !n.Pattern.Equal(p) {
			t.Fatalf("Node(%v) lookup failed", p)
		}
	}
}

func TestEmptyNetworkTree(t *testing.T) {
	tree := Build(dbnet.New(0), BuildOptions{})
	if tree.NumNodes() != 0 || tree.Depth() != 0 {
		t.Fatalf("tree of empty network should be empty")
	}
	if got := tree.QueryByAlpha(0); got.RetrievedNodes != 0 {
		t.Fatalf("query on empty tree should retrieve nothing")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.MaxAlpha() != 0 {
		t.Fatalf("MaxAlpha of empty tree should be 0")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	nw := dbnet.PaperExample()
	tree := Build(nw, BuildOptions{})
	// Corrupt a node's pattern.
	var victim *Node
	tree.Walk(func(n *Node) {
		if victim == nil {
			victim = n
		}
	})
	if victim == nil {
		t.Fatalf("no nodes to corrupt")
	}
	orig := victim.Pattern
	victim.Pattern = itemset.New(123456)
	if err := tree.Validate(); err == nil {
		t.Fatalf("Validate should detect the corrupted pattern")
	}
	victim.Pattern = orig
	if err := tree.Validate(); err != nil {
		t.Fatalf("tree should validate again after repair: %v", err)
	}
}
