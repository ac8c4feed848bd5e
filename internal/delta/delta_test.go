package delta

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// randomNetwork mirrors the generator the tctree and engine tests use.
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

// randomDelta builds a random but valid delta against nw: a few new edges, a
// few removed existing edges, a few transactions (sometimes with a brand-new
// item), sometimes a new vertex that immediately gets connected.
func randomDelta(rng *rand.Rand, nw *dbnet.Network, items int) *Delta {
	d := &Delta{}
	n := nw.NumVertices()
	if rng.Intn(3) == 0 {
		d.AddVertices = 1
		v := graph.VertexID(n) // connect and populate the new vertex
		u := graph.VertexID(rng.Intn(n))
		d.AddEdges = append(d.AddEdges, graph.EdgeOf(u, v))
		d.AddTransactions = append(d.AddTransactions, VertexTransaction{
			Vertex: v,
			Tx:     itemset.New(itemset.Item(rng.Intn(items))),
		})
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		a, b := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if a != b {
			d.AddEdges = append(d.AddEdges, graph.EdgeOf(a, b))
		}
	}
	if edges := nw.Graph().Edges(); len(edges) > 0 {
		for i := 0; i < 1+rng.Intn(2); i++ {
			d.RemoveEdges = append(d.RemoveEdges, edges[rng.Intn(len(edges))])
		}
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		it := itemset.Item(rng.Intn(items))
		if rng.Intn(4) == 0 {
			it = itemset.Item(items + rng.Intn(3)) // new item
		}
		d.AddTransactions = append(d.AddTransactions, VertexTransaction{
			Vertex: graph.VertexID(rng.Intn(n)),
			Tx:     itemset.New(it, itemset.Item(rng.Intn(items))),
		})
	}
	if rng.Intn(2) == 0 { // remove an existing transaction from a random vertex
		v := graph.VertexID(rng.Intn(n))
		if txs := nw.Database(v).Transactions(); len(txs) > 0 {
			d.RemoveTransactions = append(d.RemoveTransactions, VertexTransaction{
				Vertex: v,
				Tx:     txs[rng.Intn(len(txs))].Clone(),
			})
		}
	}
	if rng.Intn(4) == 0 { // tombstone a vertex
		d.RemoveVertices = append(d.RemoveVertices, graph.VertexID(rng.Intn(n)))
	}
	return d
}

func TestAffectedItemsBounds(t *testing.T) {
	nw := dbnet.New(4)
	nw.MustAddEdge(0, 1)
	nw.MustAddEdge(1, 2)
	mustTx := func(v graph.VertexID, items ...itemset.Item) {
		if err := nw.AddTransaction(v, itemset.New(items...)); err != nil {
			t.Fatal(err)
		}
	}
	mustTx(0, 1, 2)
	mustTx(1, 2)
	mustTx(2, 3)
	mustTx(3, 4)

	cases := []struct {
		name string
		d    *Delta
		want itemset.Itemset
	}{
		{
			name: "added edge touches both endpoints' items",
			d:    &Delta{AddEdges: []graph.Edge{graph.EdgeOf(0, 2)}},
			want: itemset.New(1, 2, 3),
		},
		{
			name: "removed edge touches both endpoints' items",
			d:    &Delta{RemoveEdges: []graph.Edge{graph.EdgeOf(1, 2)}},
			want: itemset.New(2, 3),
		},
		{
			name: "added transaction dilutes every item its vertex carries",
			d: &Delta{AddTransactions: []VertexTransaction{
				{Vertex: 2, Tx: itemset.New(9)},
			}},
			// item 9 from the new transaction, item 3 because vertex 2's
			// frequencies all change denominator.
			want: itemset.New(3, 9),
		},
		{
			name: "isolated vertex addition affects nothing",
			d:    &Delta{AddVertices: 2},
			want: itemset.New(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := AffectedItems(nw, tc.d); !got.Equal(tc.want) {
				t.Fatalf("AffectedItems = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestValidateRejectsBadDeltas(t *testing.T) {
	nw := dbnet.New(3)
	cases := []struct {
		name string
		d    *Delta
	}{
		{"nil delta", nil},
		{"negative vertex count", &Delta{AddVertices: -1}},
		{"self-loop", &Delta{AddEdges: []graph.Edge{{U: 1, V: 1}}}},
		{"edge out of range", &Delta{AddEdges: []graph.Edge{graph.EdgeOf(0, 7)}}},
		{"removed edge out of range", &Delta{RemoveEdges: []graph.Edge{graph.EdgeOf(0, 7)}}},
		{"transaction out of range", &Delta{AddTransactions: []VertexTransaction{{Vertex: 9, Tx: itemset.New(1)}}}},
		{"empty transaction", &Delta{AddTransactions: []VertexTransaction{{Vertex: 0}}}},
		{"removed vertex out of range", &Delta{RemoveVertices: []graph.VertexID{7}}},
		{"removed transaction out of range", &Delta{RemoveTransactions: []VertexTransaction{{Vertex: 9, Tx: itemset.New(1)}}}},
		{"empty removed transaction", &Delta{RemoveTransactions: []VertexTransaction{{Vertex: 0}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.d.Validate(nw); err == nil {
				t.Fatalf("Validate accepted %v", tc.d)
			}
			if err := Apply(nw, tc.d); err == nil {
				t.Fatalf("Apply accepted %v", tc.d)
			}
		})
	}
	// A delta may reference the vertices it adds.
	ok := &Delta{AddVertices: 1, AddEdges: []graph.Edge{graph.EdgeOf(0, 3)}}
	if err := ok.Validate(nw); err != nil {
		t.Fatalf("Validate rejected a self-consistent delta: %v", err)
	}
}

// Validate counts vertices in int: a delta that takes the network past
// graph.MaxVertices is refused, and one that reaches it exactly still
// references its own vertices. Only Validate runs — applying such a delta
// would allocate billions of vertex databases.
func TestValidateBoundsTheVertexCount(t *testing.T) {
	nw := dbnet.New(2)
	for _, add := range []int{1 << 32, graph.MaxVertices - 1, math.MaxInt} {
		if err := (&Delta{AddVertices: add}).Validate(nw); !errors.Is(err, ErrInvalid) {
			t.Errorf("Validate(AddVertices %d) on 2 vertices = %v, want ErrInvalid", add, err)
		}
	}
	last := graph.VertexID(graph.MaxVertices - 1)
	atBound := &Delta{AddVertices: graph.MaxVertices - 2, AddEdges: []graph.Edge{graph.EdgeOf(0, 1), graph.EdgeOf(1, last)}}
	if err := atBound.Validate(nw); err != nil {
		t.Errorf("Validate(AddVertices %d) on 2 vertices: %v", atBound.AddVertices, err)
	}
}

func TestApplyMutatesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := randomNetwork(rng, 10, 20, 4, 3)
	edges := nw.NumEdges()
	d := &Delta{
		AddVertices: 1,
		AddEdges:    []graph.Edge{graph.EdgeOf(0, 10)},
		RemoveEdges: nw.Graph().Edges()[:1],
		AddTransactions: []VertexTransaction{
			{Vertex: 10, Tx: itemset.New(99)},
		},
	}
	if err := Apply(nw, d); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if nw.NumVertices() != 11 {
		t.Fatalf("vertices = %d, want 11", nw.NumVertices())
	}
	if nw.NumEdges() != edges { // one added, one removed
		t.Fatalf("edges = %d, want %d", nw.NumEdges(), edges)
	}
	if !nw.Items().Contains(99) {
		t.Fatalf("item 99 missing after Apply")
	}
}

// TestApplyRemovals exercises the removal half of the delta vocabulary:
// removing a transaction undoes exactly one addition, and tombstoning a
// vertex drops its incident edges and database while keeping the id valid.
func TestApplyRemovals(t *testing.T) {
	nw := dbnet.New(3)
	nw.MustAddEdge(0, 1)
	nw.MustAddEdge(1, 2)
	for i := 0; i < 2; i++ {
		if err := nw.AddTransaction(1, itemset.New(5, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.AddTransaction(2, itemset.New(7)); err != nil {
		t.Fatal(err)
	}

	// Removing one occurrence leaves the duplicate in place; removing an
	// absent transaction is a no-op.
	d := &Delta{RemoveTransactions: []VertexTransaction{
		{Vertex: 1, Tx: itemset.New(5, 6)},
		{Vertex: 0, Tx: itemset.New(99)},
	}}
	if err := Apply(nw, d); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := nw.Database(1).Len(); got != 1 {
		t.Fatalf("vertex 1 has %d transactions after removal, want 1", got)
	}

	// Tombstoning vertex 1 drops both incident edges and empties the
	// database; the same delta may immediately repopulate the vertex.
	d = &Delta{
		RemoveVertices:  []graph.VertexID{1},
		AddEdges:        []graph.Edge{graph.EdgeOf(0, 1)},
		AddTransactions: []VertexTransaction{{Vertex: 1, Tx: itemset.New(8)}},
	}
	if err := Apply(nw, d); err != nil {
		t.Fatalf("Apply tombstone: %v", err)
	}
	if nw.NumEdges() != 1 {
		t.Fatalf("edges = %d after tombstone+re-add, want 1", nw.NumEdges())
	}
	if got := nw.Database(1).Transactions(); len(got) != 1 || !got[0].Equal(itemset.New(8)) {
		t.Fatalf("vertex 1 database = %v, want just {8}", got)
	}
	if nw.Items().Contains(5) {
		t.Fatalf("item 5 survived the tombstone")
	}
}

func TestDeltaIORoundTrip(t *testing.T) {
	dict := itemset.NewDictionary()
	dict.Intern("coffee")
	d := &Delta{
		AddVertices:    2,
		RemoveVertices: []graph.VertexID{4},
		AddEdges:       []graph.Edge{graph.EdgeOf(0, 5), graph.EdgeOf(1, 2)},
		RemoveEdges:    []graph.Edge{graph.EdgeOf(3, 4)},
		AddTransactions: []VertexTransaction{
			{Vertex: 5, Tx: itemset.New(0, 7)},
		},
		RemoveTransactions: []VertexTransaction{
			{Vertex: 3, Tx: itemset.New(2)},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.AddVertices != d.AddVertices || len(got.AddEdges) != len(d.AddEdges) ||
		len(got.RemoveEdges) != len(d.RemoveEdges) || len(got.AddTransactions) != len(d.AddTransactions) ||
		len(got.RemoveVertices) != len(d.RemoveVertices) || len(got.RemoveTransactions) != len(d.RemoveTransactions) {
		t.Fatalf("round trip mismatch: %s != %s", got, d)
	}
	for i, e := range d.AddEdges {
		if got.AddEdges[i] != e {
			t.Fatalf("edge %d: %v != %v", i, got.AddEdges[i], e)
		}
	}
	if !got.AddTransactions[0].Tx.Equal(d.AddTransactions[0].Tx) {
		t.Fatalf("transaction mismatch")
	}
	if got.RemoveVertices[0] != 4 {
		t.Fatalf("removed vertex = %d, want 4", got.RemoveVertices[0])
	}
	if !got.RemoveTransactions[0].Tx.Equal(d.RemoveTransactions[0].Tx) {
		t.Fatalf("removed transaction mismatch")
	}

	// I records round-trip as the delta's Names.
	d.Names = []ItemName{{Item: 7, Name: "oat milk"}, {Item: 9, Name: "tea"}}
	buf.Reset()
	if err := Write(&buf, d); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got, err = Read(bytes.NewReader(buf.Bytes()), nil); err != nil || !reflect.DeepEqual(got.Names, d.Names) {
		t.Fatalf("Read names = %v (%v), want %v", got.Names, err, d.Names)
	}

	// Named items intern through the dictionary, including unseen names.
	named, err := Read(bytes.NewReader([]byte("TCDELTA 1\nT 0 coffee tea\n")), dict)
	if err != nil {
		t.Fatalf("Read named: %v", err)
	}
	tea, ok := dict.Lookup("tea")
	if !ok {
		t.Fatalf("new item name was not interned")
	}
	want := itemset.New(0, tea)
	if !named.AddTransactions[0].Tx.Equal(want) {
		t.Fatalf("named transaction = %v, want %v", named.AddTransactions[0].Tx, want)
	}
	// Without a dictionary, names are rejected.
	if _, err := Read(bytes.NewReader([]byte("TCDELTA 1\nT 0 coffee\n")), nil); err == nil {
		t.Fatalf("Read without dictionary accepted a named item")
	}
}

// TestNumberAndIntern: ResolveTransaction leaves the names a dictionary
// does not hold unnumbered; Number numbers them once, against the dictionary
// as it stands under the update lock — a name another update introduced
// meanwhile takes that item, every other name goes past the dictionary and
// the delta's own numeric items, and the items introduced by number get
// placeholders no name of the delta takes; Intern enters exactly those
// entries and refuses any that contradict the dictionary.
func TestNumberAndIntern(t *testing.T) {
	dict := itemset.NewDictionary()
	dict.InternAll([]string{"a", "b", "c"})
	resolve := func(v graph.VertexID, fields ...string) VertexTransaction {
		t.Helper()
		vt, err := ResolveTransaction(v, fields, dict)
		if err != nil {
			t.Fatalf("resolve %q: %v", fields, err)
		}
		return vt
	}
	add := resolve(0, "b", "x", "y", "x")
	if !add.Tx.Equal(itemset.New(1)) || !slices.Equal(add.NewNames, []string{"x", "y", "x"}) {
		t.Fatalf("resolved %v with new names %q, want [1] and [x y x]", add.Tx, add.NewNames)
	}
	if _, ok := dict.Lookup("x"); ok || dict.Len() != 3 {
		t.Fatalf("ResolveTransaction changed the dictionary: %d names", dict.Len())
	}
	if _, err := ResolveTransaction(0, []string{"4294967296"}, dict); err == nil {
		t.Fatalf("resolve accepted an item past the id range")
	}
	if _, err := ResolveTransaction(0, []string{"x"}, nil); err == nil {
		t.Fatalf("a name resolved without a dictionary")
	}
	d := &Delta{AddTransactions: []VertexTransaction{add}, RemoveTransactions: []VertexTransaction{resolve(1, "y")}}
	if err := d.Validate(dbnet.New(2)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Validate of an unnumbered delta = %v, want ErrInvalid", err)
	}
	dict.Intern("y") // another update introduced y at 3 meanwhile
	d.Number(dict)
	if want := []ItemName{{Item: 4, Name: "x"}}; !reflect.DeepEqual(d.Names, want) {
		t.Fatalf("Names = %v, want %v", d.Names, want)
	}
	if tx := d.AddTransactions[0]; !tx.Tx.Equal(itemset.New(1, 3, 4)) || tx.NewNames != nil {
		t.Fatalf("added transaction = %v (new names %q), want [1 3 4] (y 3, x 4)", tx.Tx, tx.NewNames)
	}
	if tx := d.RemoveTransactions[0].Tx; !tx.Equal(itemset.New(3)) {
		t.Fatalf("removed transaction = %v, want [3] (y)", tx)
	}
	if err := d.Validate(dbnet.New(2)); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := d.Intern(dict); err != nil {
		t.Fatalf("Intern: %v", err)
	}
	if id, ok := dict.Lookup("x"); !ok || id != 4 {
		t.Fatalf("x is item %d (%v), want 4", id, ok)
	}
	if err := d.Intern(dict); err != nil {
		t.Fatalf("a second Intern of the same names: %v", err)
	}

	// Items 5 and 8 enter by number. Item 5 is where a new name would have
	// gone when the delta was resolved, and another update names it tea
	// before Number: the numeric 5 stays tea's, and the names go past 8.
	// item-7 is new, so item 7's placeholder steps aside for it.
	d = &Delta{AddTransactions: []VertexTransaction{
		resolve(0, "coffee", "item-7"), resolve(1, "5"), resolve(2, "coffee", "5"), resolve(3, "8"),
	}}
	dict.Intern("tea")
	d.Number(dict)
	want := []ItemName{{Item: 6, Name: "item-6"}, {Item: 7, Name: "item-7'"}, {Item: 8, Name: "item-8"}, {Item: 9, Name: "coffee"}, {Item: 10, Name: "item-7"}}
	if !reflect.DeepEqual(d.Names, want) {
		t.Fatalf("Names = %v, want %v", d.Names, want)
	}
	for i, tx := range []itemset.Itemset{itemset.New(9, 10), itemset.New(5), itemset.New(5, 9), itemset.New(8)} {
		if got := d.AddTransactions[i].Tx; !got.Equal(tx) {
			t.Fatalf("transaction %d = %v, want %v", i, got, tx)
		}
	}
	if err := d.Intern(dict); err != nil {
		t.Fatalf("Intern: %v", err)
	}
	for name, id := range map[string]itemset.Item{"tea": 5, "item-7'": 7, "coffee": 9, "item-7": 10} {
		if got, ok := dict.Lookup(name); !ok || got != id {
			t.Fatalf("%q is item %d (%v), want %d", name, got, ok, id)
		}
	}

	for _, bad := range [][]ItemName{
		{{Item: 0, Name: "not-a"}}, // another name at the item
		{{Item: 11, Name: "a"}},    // the name at another item
		{{Item: 12, Name: "z"}},    // past the dictionary's end
	} {
		if err := (&Delta{Names: bad}).Intern(dict); err == nil {
			t.Fatalf("Intern(%v) accepted a name the dictionary contradicts", bad)
		}
	}
	if dict.Len() != 11 {
		t.Fatalf("refused names changed the dictionary: %d names, want 11", dict.Len())
	}
	if err := (&Delta{Names: []ItemName{{Item: 9, Name: " w"}}}).Validate(dbnet.New(1)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Validate of a name with leading whitespace = %v, want ErrInvalid", err)
	}
}

// TestShardedApplyDeltaParity is the on-disk half of the acceptance
// criterion: for generated deltas, the scoped rebuild of the affected shards,
// committed to a sharded index the way a checkpoint commits it (StageShards,
// Commit, Sweep), re-reads to answer every query exactly like an index
// rebuilt from scratch on the updated network — while only the affected
// shard files change.
func TestShardedApplyDeltaParity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng, 14, 34, 5, 3)
		tree := tctree.Build(nw, tctree.BuildOptions{})
		if tree.NumNodes() == 0 {
			continue
		}
		dir := t.TempDir()
		if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
			t.Fatalf("seed %d: WriteShardedAs: %v", seed, err)
		}
		idx, err := tctree.OpenSharded(dir)
		if err != nil {
			t.Fatalf("seed %d: OpenSharded: %v", seed, err)
		}

		d := randomDelta(rng, nw, 5)
		scope := ScopeOf(nw, d)
		affected := scope.Items()
		before := idx.Manifest()
		if err := Apply(nw, d); err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		seeds := func(it itemset.Item) []graph.VertexID { return scope.Seeds(nw, it) }
		shards, _, err := tctree.RebuildScoped(nw, affected, tctree.Scope{Witnesses: scope.Witnesses, Seeds: seeds}, func(it itemset.Item) *tctree.BinShard {
			prev, err := idx.OpenShard(it)
			if err != nil {
				return nil
			}
			return prev
		})
		if err != nil {
			t.Fatalf("seed %d: RebuildScoped: %v", seed, err)
		}
		staged, err := idx.StageShards(shards)
		if err != nil {
			t.Fatalf("seed %d: StageShards: %v", seed, err)
		}
		_, err = staged.Commit()
		staged.Sweep()
		if err != nil {
			t.Fatalf("seed %d: Commit: %v", seed, err)
		}

		// Unaffected shard entries are bit-identical in the manifest.
		after := idx.Manifest()
		beforeByItem := make(map[int32]tctree.ShardEntry, len(before.Shards))
		for _, e := range before.Shards {
			beforeByItem[e.Item] = e
		}
		for _, e := range after.Shards {
			if affected.Contains(itemset.Item(e.Item)) {
				continue
			}
			if prev, ok := beforeByItem[e.Item]; !ok || prev != e {
				t.Fatalf("seed %d: unaffected shard %d changed across the commit", seed, e.Item)
			}
		}

		fresh := tctree.Build(nw, tctree.BuildOptions{})
		updated, err := idx.LoadTree()
		if err != nil {
			t.Fatalf("seed %d: LoadTree: %v", seed, err)
		}
		if err := updated.Validate(); err != nil {
			t.Fatalf("seed %d: Validate after the commit: %v", seed, err)
		}
		if updated.NumNodes() != fresh.NumNodes() {
			t.Fatalf("seed %d: updated index has %d nodes, fresh rebuild %d", seed, updated.NumNodes(), fresh.NumNodes())
		}
		maxAlpha := 0.0
		for _, s := range fresh.ShardStats() {
			maxAlpha = max(maxAlpha, s.MaxAlpha)
		}
		alphas := []float64{0, 0.1, 0.25, maxAlpha}
		patterns := []itemset.Itemset{nil, affected, itemset.New(0), itemset.New(1, 2)}
		for _, alpha := range alphas {
			for _, q := range patterns {
				assertSameAnswer(t, seed, updated.Query(q, alpha), fresh.Query(q, alpha))
			}
		}
	}
}

// assertSameAnswer compares two tree answers node by node.
func assertSameAnswer(t *testing.T, seed int64, got, want *tctree.QueryResult) {
	t.Helper()
	if len(got.Trusses) != len(want.Trusses) {
		t.Fatalf("seed %d: %d trusses, want %d", seed, len(got.Trusses), len(want.Trusses))
	}
	for i := range want.Trusses {
		g, w := got.Trusses[i], want.Trusses[i]
		if !g.Pattern.Equal(w.Pattern) {
			t.Fatalf("seed %d: truss %d pattern %v, want %v", seed, i, g.Pattern, w.Pattern)
		}
		if g.Edges.Len() != w.Edges.Len() {
			t.Fatalf("seed %d: truss %v has %d edges, want %d", seed, g.Pattern, g.Edges.Len(), w.Edges.Len())
		}
		for _, e := range w.Edges {
			if !g.Edges.Contains(e) {
				t.Fatalf("seed %d: truss %v misses edge %v", seed, g.Pattern, e)
			}
		}
	}
}
