package dbnet

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/txdb"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// smallNetwork builds a 4-vertex network:
//
//	0 -- 1 -- 2 -- 3, plus edge 0-2 (triangle 0,1,2)
//
// databases: v0 {a,b},{a}; v1 {a,b}; v2 {a}; v3 {c}.
func smallNetwork(t *testing.T) *Network {
	t.Helper()
	nw := New(4)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		nw.MustAddEdge(e[0], e[1])
	}
	const a, b, c = 1, 2, 3
	mustAdd := func(v graph.VertexID, items ...itemset.Item) {
		if err := nw.AddTransaction(v, itemset.New(items...)); err != nil {
			t.Fatalf("AddTransaction: %v", err)
		}
	}
	mustAdd(0, a, b)
	mustAdd(0, a)
	mustAdd(1, a, b)
	mustAdd(2, a)
	mustAdd(3, c)
	return nw
}

func TestNetworkBasics(t *testing.T) {
	nw := smallNetwork(t)
	if nw.NumVertices() != 4 || nw.NumEdges() != 4 {
		t.Fatalf("size = (%d,%d)", nw.NumVertices(), nw.NumEdges())
	}
	if got := nw.Frequency(0, itemset.New(1)); !approx(got, 1.0) {
		t.Errorf("f_0({a}) = %v, want 1", got)
	}
	if got := nw.Frequency(0, itemset.New(2)); !approx(got, 0.5) {
		t.Errorf("f_0({b}) = %v, want 0.5", got)
	}
	if got := nw.Frequency(99, itemset.New(1)); got != 0 {
		t.Errorf("frequency of out-of-range vertex = %v", got)
	}
	if got := nw.Items(); !got.Equal(itemset.New(1, 2, 3)) {
		t.Errorf("Items = %v", got)
	}
	if nw.Database(99) != nil {
		t.Errorf("Database(99) should be nil")
	}
	if err := nw.AddTransaction(99, itemset.New(1)); err == nil {
		t.Errorf("AddTransaction on bad vertex should fail")
	}
	if err := nw.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSetDatabase(t *testing.T) {
	nw := New(2)
	db := txdb.FromTransactions([]itemset.Item{7})
	if err := nw.SetDatabase(1, db); err != nil {
		t.Fatalf("SetDatabase: %v", err)
	}
	if got := nw.Frequency(1, itemset.New(7)); !approx(got, 1) {
		t.Fatalf("frequency after SetDatabase = %v", got)
	}
	if err := nw.SetDatabase(0, nil); err != nil {
		t.Fatalf("SetDatabase(nil): %v", err)
	}
	if nw.Database(0) == nil || !nw.Database(0).Empty() {
		t.Fatalf("nil database should become an empty database")
	}
	if err := nw.SetDatabase(5, db); err == nil {
		t.Fatalf("SetDatabase out of range should fail")
	}
}

func TestItemVerticesIndex(t *testing.T) {
	nw := smallNetwork(t)
	vs := nw.ItemVertices(1) // item a on vertices 0, 1, 2
	if len(vs) != 3 {
		t.Fatalf("ItemVertices(a) = %v", vs)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Vertex >= vs[i].Vertex {
			t.Fatalf("ItemVertices not sorted: %v", vs)
		}
	}
	if got := nw.ItemVertices(99); got != nil {
		t.Fatalf("ItemVertices of unknown item = %v", got)
	}
	// Mutation must invalidate the cache.
	if err := nw.AddTransaction(3, itemset.New(1)); err != nil {
		t.Fatalf("AddTransaction: %v", err)
	}
	if got := len(nw.ItemVertices(1)); got != 4 {
		t.Fatalf("cache not invalidated: %d vertices", got)
	}
}

func TestStats(t *testing.T) {
	nw := smallNetwork(t)
	s := nw.Stats()
	if s.Vertices != 4 || s.Edges != 4 || s.Transactions != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ItemsTotal != 7 || s.ItemsUnique != 3 {
		t.Fatalf("item stats = %+v", s)
	}
}

func TestThemeNetworkFullInduction(t *testing.T) {
	nw := smallNetwork(t)
	// Item a is on vertices 0,1,2 -> theme network has the triangle 0-1-2.
	tn := nw.ThemeNetwork(itemset.New(1))
	if tn.NumVertices() != 3 || tn.NumEdges() != 3 {
		t.Fatalf("theme network of {a}: |V|=%d |E|=%d", tn.NumVertices(), tn.NumEdges())
	}
	if !approx(tn.Frequency(0), 1) || !approx(tn.Frequency(1), 1) || !approx(tn.Frequency(2), 1) {
		t.Fatalf("frequencies = %v", tn.Freqs)
	}
	if tn.Frequency(3) != 0 {
		t.Fatalf("vertex 3 should not be in the theme network")
	}
	// Item b is only on 0 and 1 -> a single edge.
	tn = nw.ThemeNetwork(itemset.New(2))
	if tn.NumVertices() != 2 || tn.NumEdges() != 1 {
		t.Fatalf("theme network of {b}: |V|=%d |E|=%d", tn.NumVertices(), tn.NumEdges())
	}
	// Pattern {a,b}: f>0 on 0 and 1 only.
	tn = nw.ThemeNetwork(itemset.New(1, 2))
	if tn.NumVertices() != 2 || tn.NumEdges() != 1 {
		t.Fatalf("theme network of {a,b}: |V|=%d |E|=%d", tn.NumVertices(), tn.NumEdges())
	}
	if !approx(tn.Frequency(0), 0.5) {
		t.Fatalf("f_0({a,b}) = %v, want 0.5", tn.Frequency(0))
	}
	// Unknown item -> empty theme network.
	tn = nw.ThemeNetwork(itemset.New(42))
	if tn.NumVertices() != 0 || tn.NumEdges() != 0 {
		t.Fatalf("theme network of unknown item should be empty")
	}
	// Empty pattern -> all non-empty-database vertices with frequency 1.
	tn = nw.ThemeNetwork(itemset.New())
	if tn.NumVertices() != 4 || tn.NumEdges() != 4 {
		t.Fatalf("theme network of empty pattern: |V|=%d |E|=%d", tn.NumVertices(), tn.NumEdges())
	}
}

func TestThemeNetworkWithin(t *testing.T) {
	nw := smallNetwork(t)
	within := graph.NewEdgeSet(graph.EdgeOf(0, 1), graph.EdgeOf(2, 3))
	tn := nw.ThemeNetworkWithin(itemset.New(1), within)
	// Of the restricted edges, only (0,1) has both endpoints containing a.
	if tn.NumEdges() != 1 || tn.Edges[0] != graph.EdgeOf(0, 1) {
		t.Fatalf("restricted theme network edges = %v", tn.Edges)
	}
	// nil restriction falls back to full induction.
	tn = nw.ThemeNetworkWithin(itemset.New(1), nil)
	if tn.NumEdges() != 3 {
		t.Fatalf("nil restriction should induce from the full network")
	}
	// Restriction with empty pattern keeps both edges (all databases non-empty).
	tn = nw.ThemeNetworkWithin(itemset.New(), within)
	if tn.NumEdges() != 2 {
		t.Fatalf("empty-pattern restricted induction = %d edges", tn.NumEdges())
	}
}

// Theme networks induced within a subgraph must agree with the full induction
// intersected with that subgraph (this is what makes the TCFI optimization
// exact).
func TestThemeNetworkWithinConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(rng, 20, 40, 6)
	full := nw.ThemeNetwork(itemset.New(0, 1))
	all := graph.NewEdgeSet(nw.ThemeNetwork(itemset.New(0)).Edges...)
	restricted := nw.ThemeNetworkWithin(itemset.New(0, 1), all)
	if !graph.NewEdgeSet(restricted.Edges...).Equal(graph.NewEdgeSet(full.Edges...).Intersect(all)) {
		t.Fatalf("restricted induction disagrees with full induction")
	}
	for i, v := range restricted.Vertices {
		if !approx(restricted.Freqs[i], nw.Frequency(v, itemset.New(0, 1))) {
			t.Fatalf("frequency mismatch on vertex %d", v)
		}
	}
}

func TestInducedByEdges(t *testing.T) {
	nw := smallNetwork(t)
	edges := []graph.Edge{graph.EdgeOf(1, 2), graph.EdgeOf(2, 3)}
	sub, orig := nw.InducedByEdges(edges)
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced network size = (%d,%d)", sub.NumVertices(), sub.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 1 || orig[2] != 3 {
		t.Fatalf("orig mapping = %v", orig)
	}
	// Databases are shared: frequency of item a on new vertex 0 (orig 1) is 1.
	if got := sub.Frequency(0, itemset.New(1)); !approx(got, 1) {
		t.Fatalf("shared database frequency = %v", got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	nw := smallNetwork(t)
	dict := itemset.NewDictionary()
	dict.Intern("zero")
	dict.Intern("alpha")
	dict.Intern("beta")
	dict.Intern("gamma")

	var buf bytes.Buffer
	if err := Write(&buf, nw, dict); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, gotDict, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumVertices() != nw.NumVertices() || got.NumEdges() != nw.NumEdges() {
		t.Fatalf("round trip size mismatch")
	}
	if got.Stats() != nw.Stats() {
		t.Fatalf("round trip stats mismatch: %+v vs %+v", got.Stats(), nw.Stats())
	}
	for v := 0; v < nw.NumVertices(); v++ {
		for _, p := range []itemset.Itemset{itemset.New(1), itemset.New(2), itemset.New(1, 2)} {
			if !approx(got.Frequency(graph.VertexID(v), p), nw.Frequency(graph.VertexID(v), p)) {
				t.Fatalf("frequency mismatch on vertex %d pattern %v", v, p)
			}
		}
	}
	if gotDict.Len() != 4 || gotDict.MustName(1) != "alpha" {
		t.Fatalf("dictionary round trip failed: %d items", gotDict.Len())
	}
}

func TestWriteWithoutDictionary(t *testing.T) {
	nw := smallNetwork(t)
	var buf bytes.Buffer
	if err := Write(&buf, nw, nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, dict, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if dict.Len() != 0 {
		t.Fatalf("expected empty dictionary, got %d entries", dict.Len())
	}
	if got.NumEdges() != nw.NumEdges() {
		t.Fatalf("edge count mismatch")
	}
}

func TestReadRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad header", "NOPE 9\nV 3\n"},
		{"missing V", "DBNET 1\nE 0 1\n"},
		{"duplicate V", "DBNET 1\nV 2\nV 2\n"},
		{"negative V", "DBNET 1\nV -1\n"},
		{"bad edge arity", "DBNET 1\nV 2\nE 0\n"},
		{"bad edge vertex", "DBNET 1\nV 2\nE 0 x\n"},
		{"edge out of range", "DBNET 1\nV 2\nE 0 7\n"},
		{"self loop", "DBNET 1\nV 2\nE 1 1\n"},
		{"tx before V", "DBNET 1\nT 0 1\n"},
		{"tx bad vertex", "DBNET 1\nV 2\nT x 1\n"},
		{"tx bad item", "DBNET 1\nV 2\nT 0 notanitem\n"},
		{"tx out of range", "DBNET 1\nV 2\nT 9 1\n"},
		{"unknown record", "DBNET 1\nV 2\nX 1 2\n"},
		{"bad item line", "DBNET 1\nV 2\nI 5\n"},
		{"bad item id", "DBNET 1\nV 2\nI x name\n"},
		// Ids are 32-bit: none wraps onto another vertex or item.
		{"edge endpoint past the id range", "DBNET 1\nV 2\nE 4294967296 1\n"},
		{"tx vertex past the id range", "DBNET 1\nV 2\nT 4294967297 5\n"},
		{"tx item past the id range", "DBNET 1\nV 2\nT 0 4294967296\n"},
		{"negative tx item", "DBNET 1\nV 2\nT 0 -7\n"},
		{"item line past the id range", "DBNET 1\nV 2\nI 4294967296 x\n"},
		{"negative item line", "DBNET 1\nV 2\nI -1 x\n"},
		{"V past the vertex bound", "DBNET 1\nV 2147483649\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Read(strings.NewReader(c.input)); err == nil {
				t.Fatalf("Read(%q) should fail", c.input)
			}
		})
	}
}

// TestReadKeepsItemNamesAtTheirIds: every I line's name sits at its id
// after Read — a name given at two ids, or an id named twice, is refused
// with its line, and the placeholder of an unnamed id is one no I line uses.
func TestReadKeepsItemNamesAtTheirIds(t *testing.T) {
	for _, c := range []struct{ input, err string }{
		{"DBNET 1\nV 1\nI 0 a\nI 1 a\nI 2 b\n", `line 4: item name "a" given at items 0 and 1`},
		{"DBNET 1\nV 1\nI 0 a\nI 0 b\n", "line 4: item 0 named twice"},
	} {
		if _, _, err := Read(strings.NewReader(c.input)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Fatalf("Read(%q) = %v, want an error with %q", c.input, err, c.err)
		}
	}
	_, dict, err := Read(strings.NewReader("DBNET 1\nV 1\nI 1 item-0\nI 2 b\nI 4 item-3\n"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for id, want := range map[itemset.Item]string{1: "item-0", 2: "b", 4: "item-3"} {
		if name, err := dict.Name(id); err != nil || name != want {
			t.Fatalf("item %d is %q (%v), want %q", id, name, err, want)
		}
	}
	if dict.Len() != 5 {
		t.Fatalf("dictionary holds %d items, want 5", dict.Len())
	}
}

func TestReadIgnoresCommentsAndBlankLines(t *testing.T) {
	input := "# comment\n\nDBNET 1\n# another\nV 2\n\nE 0 1\nT 0 5\n"
	nw, _, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if nw.NumVertices() != 2 || nw.NumEdges() != 1 {
		t.Fatalf("parsed network wrong: %v", nw)
	}
}

func TestWriteReadFile(t *testing.T) {
	nw := smallNetwork(t)
	path := t.TempDir() + "/net.dbnet"
	if err := WriteFileAtomic(path, nw, nil); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, _, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Stats() != nw.Stats() {
		t.Fatalf("file round trip stats mismatch")
	}
	if _, _, err := ReadFile(path + ".missing"); err == nil {
		t.Fatalf("ReadFile of missing file should fail")
	}
}

func TestPaperExampleFrequencies(t *testing.T) {
	nw := PaperExample()
	if nw.NumVertices() != 9 {
		t.Fatalf("paper example should have 9 vertices")
	}
	wantP := []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.0, 0.3, 0.3, 0.3}
	for v, want := range wantP {
		if got := nw.Frequency(graph.VertexID(v), PaperExampleP); !approx(got, want) {
			t.Errorf("f_%d(p) = %v, want %v", v+1, got, want)
		}
	}
	// Example 3.2: edge (v1,v2) is in triangles with v3 and v5.
	g := nw.Graph()
	cn := graph.IntersectSorted(g.Neighbors(0), g.Neighbors(1))
	if len(cn) != 2 || cn[0] != 2 || cn[1] != 4 {
		t.Fatalf("common neighbors of v1,v2 = %v, want [v3 v5]", cn)
	}
	// The theme network of p excludes v6 (frequency 0).
	tn := nw.ThemeNetwork(PaperExampleP)
	if tn.NumVertices() != 8 {
		t.Fatalf("theme network of p has %d vertices, want 8", tn.NumVertices())
	}
	if tn.Frequency(5) != 0 {
		t.Fatalf("v6 must not be part of the theme network of p")
	}
}

func TestStringSummaries(t *testing.T) {
	nw := New(3)
	if got := nw.String(); got != "dbnet.Network{|V|=3, |E|=0}" {
		t.Fatalf("String = %q", got)
	}
}

func randomNetwork(rng *rand.Rand, n, m, items int) *Network {
	nw := New(n)
	for i := 0; i < m; i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			nw.MustAddEdge(a, b)
		}
	}
	for v := 0; v < n; v++ {
		ntx := 1 + rng.Intn(5)
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

func TestJournalSeqStamp(t *testing.T) {
	nw := smallNetwork(t)
	dir := t.TempDir()
	path := dir + "/net.dbnet"
	if err := WriteFileAtomicStamped(path, nw, nil, 99); err != nil {
		t.Fatalf("WriteFileAtomicStamped: %v", err)
	}
	// The stamp is readable...
	seq, err := ReadJournalSeq(path)
	if err != nil || seq != 99 {
		t.Fatalf("ReadJournalSeq = (%d, %v), want (99, nil)", seq, err)
	}
	// ...and invisible to the network reader (it is just a comment).
	got, _, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.NumVertices() != nw.NumVertices() || got.NumEdges() != nw.NumEdges() {
		t.Fatalf("stamped file parsed to (%d,%d), want (%d,%d)",
			got.NumVertices(), got.NumEdges(), nw.NumVertices(), nw.NumEdges())
	}
	// An unstamped file reads as seq 0.
	if err := WriteFileAtomic(path, nw, nil); err != nil {
		t.Fatal(err)
	}
	if seq, err := ReadJournalSeq(path); err != nil || seq != 0 {
		t.Fatalf("ReadJournalSeq on unstamped file = (%d, %v), want (0, nil)", seq, err)
	}
}

func TestRemoveTransactionAndClearVertex(t *testing.T) {
	nw := smallNetwork(t)
	removed, err := nw.RemoveTransaction(0, itemset.New(1))
	if err != nil || !removed {
		t.Fatalf("RemoveTransaction = (%v, %v)", removed, err)
	}
	if got := nw.Database(0).Len(); got != 1 {
		t.Fatalf("vertex 0 has %d transactions, want 1", got)
	}
	if removed, _ := nw.RemoveTransaction(0, itemset.New(9)); removed {
		t.Fatal("removing an absent transaction reported success")
	}
	if _, err := nw.RemoveTransaction(99, itemset.New(1)); err == nil {
		t.Fatal("RemoveTransaction on a bad vertex did not fail")
	}
	// Tombstone vertex 2: edges 1-2, 2-3 and 0-2 disappear, item 'a' (1)
	// survives on other vertices.
	if err := nw.ClearVertex(2); err != nil {
		t.Fatalf("ClearVertex: %v", err)
	}
	if nw.NumEdges() != 1 {
		t.Fatalf("edges after tombstone = %d, want 1", nw.NumEdges())
	}
	if !nw.Database(2).Empty() {
		t.Fatal("tombstoned vertex database is not empty")
	}
	if err := nw.ClearVertex(99); err == nil {
		t.Fatal("ClearVertex on a bad vertex did not fail")
	}
}

// TestIncrementalIndexEqualsRebuilt drives random sequences of every mutator
// over a network whose item index is built, and after each step compares the
// patched index — item by item, entry by entry, frequencies with == — with
// the index a copy of the network builds from scratch.
func TestIncrementalIndexEqualsRebuilt(t *testing.T) {
	rebuilt := func(nw *Network) *Network {
		var buf bytes.Buffer
		if err := Write(&buf, nw, nil); err != nil {
			t.Fatal(err)
		}
		cp, _, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const items = 7
		nw := randomNetwork(rng, 12, 20, items)
		nw.Freeze() // builds the index the mutators must now keep current
		for step := 0; step < 40; step++ {
			v := graph.VertexID(rng.Intn(nw.NumVertices()))
			var what string
			switch op := rng.Intn(7); op {
			case 0, 1:
				what = "AddTransaction"
				tx := itemset.New(itemset.Item(rng.Intn(items)), itemset.Item(rng.Intn(items+2)))
				if err := nw.AddTransaction(v, tx); err != nil {
					t.Fatal(err)
				}
			case 2, 3:
				what = "RemoveTransaction"
				tx := itemset.New(itemset.Item(rng.Intn(items))) // usually absent: a no-op
				if txs := nw.Database(v).Transactions(); len(txs) > 0 && rng.Intn(4) > 0 {
					tx = txs[rng.Intn(len(txs))].Clone()
				}
				if _, err := nw.RemoveTransaction(v, tx); err != nil {
					t.Fatal(err)
				}
			case 4:
				what = "ClearVertex"
				if err := nw.ClearVertex(v); err != nil {
					t.Fatal(err)
				}
			case 5:
				what = "SetDatabase"
				db := txdb.FromTransactions([]itemset.Item{itemset.Item(rng.Intn(items)), itemset.Item(items + 3)})
				if err := nw.SetDatabase(v, db); err != nil {
					t.Fatal(err)
				}
			case 6:
				what = "AddVertices"
				nw.AddVertices(1)
			}
			want := rebuilt(nw)
			if got, w := nw.Items(), want.Items(); !got.Equal(w) {
				t.Fatalf("seed %d step %d (%s): items %v, rebuilt %v", seed, step, what, got, w)
			}
			for _, it := range want.Items() {
				if got, w := nw.ItemVertices(it), want.ItemVertices(it); !reflect.DeepEqual(got, w) {
					t.Fatalf("seed %d step %d (%s): item %d indexed as %v, rebuilt %v", seed, step, what, it, got, w)
				}
			}
			if got, w := nw.Stats(), want.Stats(); got != w {
				t.Fatalf("seed %d step %d (%s): stats %+v, rebuilt %+v", seed, step, what, got, w)
			}
		}
		// InvalidateCaches still means a full rebuild, for callers that
		// mutate a Database behind the network's back.
		nw.Database(0).Add(itemset.New(items + 5))
		nw.InvalidateCaches()
		if l := nw.ItemVertices(items + 5); len(l) != 1 || l[0].Vertex != 0 {
			t.Fatalf("seed %d: after InvalidateCaches the direct Add is indexed as %v", seed, l)
		}
	}
}

// TestFrozenNetworkIsSafeForConcurrentReaders reads everything the mining
// kernel reads — the item index, the adjacency lists, every vertex database's
// vertical layout, including those of vertices a mutator just added or
// emptied — from several goroutines after mutate-then-Freeze. It asserts
// nothing itself: under -race a structure still built lazily on first read
// is the failure.
func TestFrozenNetworkIsSafeForConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const items = 6
	nw := randomNetwork(rng, 14, 30, items)
	nw.Freeze()
	// One of every mutation, on an index that is already built.
	nw.AddVertices(2)
	nw.MustAddEdge(0, graph.VertexID(nw.NumVertices()-1))
	if err := nw.AddTransaction(1, itemset.New(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RemoveTransaction(2, nw.Database(2).Transactions()[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if err := nw.ClearVertex(3); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDatabase(4, txdb.FromTransactions([]itemset.Item{1, 2}, []itemset.Item{2, 3})); err != nil {
		t.Fatal(err)
	}
	nw.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tids []int32
			for i := 0; i < items; i++ {
				for j := i + 1; j < items; j++ {
					p := itemset.New(itemset.Item(i), itemset.Item(j))
					tn := nw.ThemeNetwork(p)
					nw.ThemeNetworkWithin(p, graph.NewEdgeSet(tn.Edges...))
					for v := 0; v < nw.NumVertices(); v++ {
						db := nw.Database(graph.VertexID(v))
						tids = db.TransactionsWith(tids[:0], p)
						if len(tids) != db.Support(p) {
							t.Errorf("vertex %d: %d transactions with %v, support %d", v, len(tids), p, db.Support(p))
						}
						db.ItemCounts(func(itemset.Item, int) {})
					}
				}
			}
			nw.Items()
			nw.Stats()
		}()
	}
	wg.Wait()
}
