package tctree

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"themecomm/internal/core"
	"themecomm/internal/dbnet"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
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
	if tree.Depth() < 1 {
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
		qr := tree.Query(q, 0)
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
	empty := tree.Query(itemset.New(4242), 0)
	if empty.RetrievedNodes != 0 || len(empty.Trusses) != 0 {
		t.Fatalf("query of unknown pattern should retrieve nothing")
	}
}

func TestQueryByAlphaMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	nw := randomNetwork(rng, 16, 40, 4, 4)
	tree := Build(nw, BuildOptions{})
	maxAlpha := treeMaxAlpha(tree)
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
	if got := len(tree.Root().Children); got != tree.NumNodes() {
		t.Fatalf("%d patterns of length 1, want %d", got, tree.NumNodes())
	}
}

// TestBuildSerialVsParallel asserts that the per-subtree fan-out changes
// nothing: one worker and several produce the same tree, node for node and
// threshold for threshold (under -race it is also the concurrent reader of
// the frozen network's indexes).
func TestBuildSerialVsParallel(t *testing.T) {
	for seed := int64(70); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng, 16, 60, 5, 6)
		serial := Build(nw, BuildOptions{Parallelism: 1})
		parallel := Build(nw, BuildOptions{Parallelism: 4})
		if serial.NumNodes() != parallel.NumNodes() {
			t.Fatalf("seed %d: serial and parallel builds disagree: %d vs %d nodes", seed, serial.NumNodes(), parallel.NumNodes())
		}
		for i, c := range serial.Root().Children {
			assertSameSubtree(t, c, parallel.Root().Children[i])
		}
		bounded := Build(nw, BuildOptions{Parallelism: 4, MaxDepth: 2})
		if bounded.Depth() > 2 || !bounded.MiningResult(0).Equal(Build(nw, BuildOptions{Parallelism: 1, MaxDepth: 2}).MiningResult(0)) {
			t.Fatalf("seed %d: depth-bounded parallel build differs from the serial one", seed)
		}
	}
}

// indexOf encodes a built tree as an Index, shard by shard: what BuildIndex
// builds from the tree's network.
func indexOf(tb testing.TB, tree *Tree) *Index {
	tb.Helper()
	idx := &Index{BuiltMaxDepth: tree.builtMaxDepth}
	for _, root := range tree.Root().Children {
		enc, err := encodeShardBinary(root)
		if err != nil {
			tb.Fatal(err)
		}
		idx.Shards = append(idx.Shards, enc)
	}
	return idx
}

// shardBytes writes the tree as an index, as cmd/tcload writes a Build
// (WriteShardedAs), and returns item → shard file bytes together with the
// manifest's per-shard entries.
func shardBytes(t *testing.T, tree *Tree) (map[int32][]byte, map[int32]ShardEntry) {
	t.Helper()
	dir := t.TempDir()
	m, err := tree.WriteShardedAs(dir, FormatTCBIN)
	if err != nil {
		t.Fatal(err)
	}
	files, entries := make(map[int32][]byte), make(map[int32]ShardEntry)
	for _, e := range m.Shards {
		data, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Item], entries[e.Item] = data, e
	}
	return files, entries
}

// TestBuildIsAFunctionOfTheNetwork asserts that an index is determined by its
// network alone: two builds, and builds under GOMAXPROCS 1 and 4, write
// byte-identical shard files and manifest checksums, and BuildIndex — which
// never holds the tree — produces those bytes and entries at every
// GOMAXPROCS, shard for shard in ascending item. (Summing and peeling in
// map-iteration order used to move thresholds by an ulp between builds, so a
// primary, its replicas and a from-scratch tcindex could disagree.) A
// depth-bounded BuildIndex records its bound in the manifest Write writes.
func TestBuildIsAFunctionOfTheNetwork(t *testing.T) {
	ds, err := gen.AMiner(0.2)
	if err != nil {
		t.Fatal(err)
	}
	wantFiles, wantEntries := shardBytes(t, Build(ds.Network, BuildOptions{}))
	if len(wantFiles) < 20 {
		t.Fatalf("only %d shards; the dataset is too small to mean anything", len(wantFiles))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{0, 1, 4} {
		if procs > 0 {
			runtime.GOMAXPROCS(procs)
		}
		files, entries := shardBytes(t, Build(ds.Network, BuildOptions{}))
		if len(files) != len(wantFiles) {
			t.Fatalf("GOMAXPROCS %d: %d shards, first build %d", procs, len(files), len(wantFiles))
		}
		for item, want := range wantFiles {
			if !bytes.Equal(files[item], want) || entries[item].Checksum != wantEntries[item].Checksum {
				t.Fatalf("GOMAXPROCS %d: shard of item %d differs from the first build (checksum %s vs %s)",
					procs, item, entries[item].Checksum, wantEntries[item].Checksum)
			}
		}
		idx, err := BuildIndex(ds.Network, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(idx.Shards) != len(wantFiles) || idx.BuiltMaxDepth != 0 {
			t.Fatalf("GOMAXPROCS %d: BuildIndex has %d shards (depth bound %d), Build wrote %d", procs, len(idx.Shards), idx.BuiltMaxDepth, len(wantFiles))
		}
		for i, s := range idx.Shards {
			if i > 0 && s.Entry.Item <= idx.Shards[i-1].Entry.Item {
				t.Fatalf("GOMAXPROCS %d: BuildIndex shard %d (item %d) out of item order", procs, i, s.Entry.Item)
			}
			if !bytes.Equal(s.Data, wantFiles[s.Entry.Item]) || s.Entry != wantEntries[s.Entry.Item] {
				t.Fatalf("GOMAXPROCS %d: BuildIndex shard of item %d differs from the file Build writes:\n%+v\n%+v",
					procs, s.Entry.Item, s.Entry, wantEntries[s.Entry.Item])
			}
		}
	}
	bounded, err := BuildIndex(ds.Network, BuildOptions{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := bounded.Write(dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.BuiltMaxDepth != 2 || m.Depth() > 2 {
		t.Fatalf("MaxDepth 2 BuildIndex wrote a manifest with BuiltMaxDepth %d, depth %d", m.BuiltMaxDepth, m.Depth())
	}
}

// TestTreeMatchesTCFIOnGeneratedDatasets is the end-to-end answer check of
// the mining kernel: on every dataset analogue, what the tree answers for a
// grid of (pattern, α) is what TCFI mines from the raw network at that α —
// the same trusses, the same communities, the same frequencies — and every
// node's thresholds are those of decomposing the pattern's theme network
// induced from the whole network, within 1e-9.
func TestTreeMatchesTCFIOnGeneratedDatasets(t *testing.T) {
	for _, name := range []string{"BK", "GW", "AMINER", "SYN"} {
		ds, err := gen.ByName(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		nw := ds.Network
		// SYN's vertex databases are long; bound the pattern length there so
		// TCFI stays a test, not a benchmark.
		maxLen := 0
		if name == "SYN" {
			maxLen = 2
		}
		tree := Build(nw, BuildOptions{MaxDepth: maxLen})
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tree.NumNodes() < 10 {
			t.Fatalf("%s: only %d nodes indexed", name, tree.NumNodes())
		}
		universe := nw.Items()
		rng := rand.New(rand.NewSource(9))
		for _, alpha := range []float64{0, 0.05, 0.2, 0.5, 1.1} {
			mined := core.TCFI(nw, core.Options{Alpha: alpha, MaxPatternLength: maxLen})
			if got := tree.MiningResult(alpha); !got.Equal(mined) {
				t.Fatalf("%s α=%v: the tree answers NP=%d NE=%d, TCFI mines NP=%d NE=%d",
					name, alpha, got.NumPatterns(), got.NumEdges(), mined.NumPatterns(), mined.NumEdges())
			}
			// Query by pattern: a random q retrieves exactly the mined
			// trusses of q's sub-patterns, with the same communities.
			for trial := 0; trial < 8; trial++ {
				var q itemset.Itemset
				for _, it := range universe {
					if rng.Intn(4) == 0 {
						q = q.Add(it)
					}
				}
				answered := 0
				for _, tr := range tree.Query(q, alpha).Trusses {
					want := mined.Truss(tr.Pattern)
					if want == nil || !want.Edges.Equal(tr.Edges) || len(want.Communities()) != len(tr.Communities()) {
						t.Fatalf("%s α=%v q=%v: truss of %v differs from the mined one", name, alpha, q, tr.Pattern)
					}
					for v, f := range tr.Freq {
						if !approx(f, want.Freq[v]) {
							t.Fatalf("%s α=%v: f_%d(%v) = %v, mined %v", name, alpha, v, tr.Pattern, f, want.Freq[v])
						}
					}
					answered++
				}
				for _, p := range mined.Patterns() {
					if p.SubsetOf(q) {
						answered--
					}
				}
				if answered != 0 {
					t.Fatalf("%s α=%v q=%v: the tree and TCFI disagree on how many sub-patterns of q qualify", name, alpha, q)
				}
			}
		}
		checked := 0
		tree.Walk(func(n *Node) {
			if checked++; checked%7 != 0 {
				return // a sample: the full induction is the slow path
			}
			want := truss.Decompose(nw.ThemeNetwork(n.Pattern)).Thresholds()
			got := n.Decomp.Thresholds()
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d levels, %d when decomposed from the whole network", name, n.Pattern, len(got), len(want))
			}
			for i := range want {
				if !approx(got[i], want[i]) {
					t.Fatalf("%s %v level %d: threshold %v, %v from the whole network", name, n.Pattern, i, got[i], want[i])
				}
			}
		})
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
	if treeMaxAlpha(tree) != 0 {
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
