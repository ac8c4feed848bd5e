package delta_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/replication"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// changeKinds are the six kinds of change a delta can carry. A random delta
// combines one to three of them.
var changeKinds = [...]string{"+V", "+E", "-E", "+T", "-T", "tombstone"}

// randomChange appends one change of the given kind to d, drawn so that it
// lands where the index has something to lose or gain: new edges close
// triangles, new transactions repeat patterns the neighbourhood already
// carries, removals pick edges and transactions that exist.
func randomChange(rng *rand.Rand, nw *dbnet.Network, d *delta.Delta, kind string) {
	n := nw.NumVertices()
	vertex := func() graph.VertexID { return graph.VertexID(rng.Intn(n)) }
	// borrowed returns a transaction some vertex near v carries, sometimes
	// with one item dropped or one foreign item added.
	borrowed := func(v graph.VertexID) itemset.Itemset {
		from := v
		if nbrs := nw.Graph().Neighbors(v); len(nbrs) > 0 && rng.Intn(3) > 0 {
			from = nbrs[rng.Intn(len(nbrs))]
		}
		txs := nw.Database(from).Transactions()
		if len(txs) == 0 {
			txs = nw.Database(vertex()).Transactions()
		}
		if len(txs) == 0 {
			return itemset.New(nw.Items()[0])
		}
		tx := txs[rng.Intn(len(txs))].Clone()
		switch rng.Intn(4) {
		case 0:
			if tx.Len() > 1 {
				tx = tx.Remove(tx[rng.Intn(tx.Len())])
			}
		case 1:
			items := nw.Items()
			tx = tx.Add(items[rng.Intn(items.Len())])
		}
		return tx
	}
	// connect joins v to a vertex — which it returns — and to one of that
	// vertex's neighbours, so that the new edges close a triangle.
	connect := func(v graph.VertexID) graph.VertexID {
		u := vertex()
		for u == v {
			u = vertex()
		}
		d.AddEdges = append(d.AddEdges, graph.EdgeOf(v, u))
		for _, w := range nw.Graph().Neighbors(u) {
			if w != v {
				d.AddEdges = append(d.AddEdges, graph.EdgeOf(v, w))
				break
			}
		}
		return u
	}
	switch kind {
	case "+V":
		v := graph.VertexID(n + d.AddVertices)
		d.AddVertices++
		u := connect(v)
		for i := 0; i < 1+rng.Intn(3); i++ {
			d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{Vertex: v, Tx: borrowed(u)})
		}
	case "+E":
		connect(vertex())
	case "-E":
		if edges := nw.Graph().Edges(); len(edges) > 0 {
			d.RemoveEdges = append(d.RemoveEdges, edges[rng.Intn(len(edges))])
		}
	case "+T":
		v := vertex()
		d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{Vertex: v, Tx: borrowed(v)})
	case "-T":
		v := vertex()
		if txs := nw.Database(v).Transactions(); len(txs) > 0 {
			d.RemoveTransactions = append(d.RemoveTransactions, delta.VertexTransaction{Vertex: v, Tx: txs[rng.Intn(len(txs))]})
		}
	case "tombstone":
		// Tombstone a vertex and repopulate it in the same delta.
		v := vertex()
		d.RemoveVertices = append(d.RemoveVertices, v)
		connect(v)
		for i := 0; i < rng.Intn(3); i++ {
			d.AddTransactions = append(d.AddTransactions, delta.VertexTransaction{Vertex: v, Tx: borrowed(v)})
		}
	}
}

// randomDelta draws a delta of one to three changes; first, when set, is the
// kind of the first one, so that a sequence can cover every kind.
func randomDelta(rng *rand.Rand, nw *dbnet.Network, first string) *delta.Delta {
	d := &delta.Delta{}
	randomChange(rng, nw, d, first)
	for i := rng.Intn(3); i > 0; i-- {
		randomChange(rng, nw, d, changeKinds[rng.Intn(len(changeKinds))])
	}
	return d
}

// indexFiles reads an index directory: the bytes of every shard the manifest
// lists, by root item, after checking that the directory holds those files,
// the manifest and nothing else.
func indexFiles(t *testing.T, dir string) (*tctree.Manifest, map[int32][]byte) {
	t.Helper()
	m, err := tctree.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{tctree.ManifestName}
	shards := make(map[int32][]byte, len(m.Shards))
	for _, e := range m.Shards {
		data, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		shards[e.Item] = data
		want = append(want, e.File)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("index directory holds %v, its manifest accounts for %v", got, want)
	}
	return m, shards
}

// assertIndexEqualsFreshBuild fails unless the index directory is what a
// fresh Build + WriteShardedAs of a pristine copy of nw produces: the same
// shards in the same order, byte for byte, under the same manifest entries,
// file names included (both name a shard by its content).
func assertIndexEqualsFreshBuild(t *testing.T, dir string, nw *dbnet.Network, when string) {
	t.Helper()
	var buf bytes.Buffer
	if err := dbnet.Write(&buf, nw, nil); err != nil {
		t.Fatal(err)
	}
	pristine, _, err := dbnet.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	freshDir := t.TempDir()
	if _, err := tctree.Build(pristine, tctree.BuildOptions{}).WriteShardedAs(freshDir, tctree.FormatTCBIN); err != nil {
		t.Fatal(err)
	}
	fresh, want := indexFiles(t, freshDir)
	maintained, got := indexFiles(t, dir)
	if len(maintained.Shards) != len(fresh.Shards) {
		t.Fatalf("%s: the maintained index has %d shards, the fresh build %d", when, len(maintained.Shards), len(fresh.Shards))
	}
	for i, e := range fresh.Shards {
		m := maintained.Shards[i]
		if m != e || !bytes.Equal(got[e.Item], want[e.Item]) {
			t.Fatalf("%s: shard of item %d differs from the fresh build\nmaintained: %+v\nfresh:      %+v", when, e.Item, m, e)
		}
	}
}

// maintainedCase is one randomized maintenance run: a generated network, a
// caller of the one write route, a GOMAXPROCS and a seed.
type maintainedCase struct {
	dataset string
	scale   gen.Scale
	// path names the caller. "staged" is a primary that checkpoints every
	// update at once: journaled, applied in memory, its shards staged and
	// committed right after (applyNow). "journaled" is a replication member:
	// one or two in-memory updates, then a checkpoint at an advancing
	// journal seq. "offline" is tcupdate: the staged caller over files
	// opened cold for every update.
	path  string
	procs int
	seed  int64
	steps int
}

func (c maintainedCase) String() string {
	return fmt.Sprintf("%s-%g/%s/procs=%d/seed=%d", c.dataset, float64(c.scale), c.path, c.procs, c.seed)
}

// run maintains an index of the case's network through its sequence of
// random deltas — every change kind at least once when steps allow — and
// compares the index directory with a fresh build after every checkpoint.
func (c maintainedCase) run(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
	ds, err := gen.ByName(c.dataset, c.scale)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := tctree.Build(ds.Network, tctree.BuildOptions{}).WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		t.Fatal(err)
	}
	netPath := filepath.Join(t.TempDir(), "network.dbnet")
	if err := dbnet.WriteFileAtomic(netPath, ds.Network, nil); err != nil {
		t.Fatal(err)
	}
	// attach opens the index directory and the network file as a server
	// does, under a small residency budget: some previous shards are resident
	// when an update reads them, some are opened for it.
	journalDir := filepath.Join(t.TempDir(), "journal")
	var p *replication.Primary
	closeWritable := func() {
		if p != nil {
			p.Close()
		}
	}
	t.Cleanup(closeWritable)
	attach := func() *federation.Network {
		f := federation.New(federation.Options{MaxResidentShards: 8})
		if err := f.AttachIndexDir("net", dir, netPath); err != nil {
			t.Fatal(err)
		}
		n, _ := f.Network("net")
		if c.path != "journaled" {
			closeWritable() // the previous open of the files, if any
			p = openWritable(t, f, journalDir)
		}
		return n
	}
	n := attach()
	rng := rand.New(rand.NewSource(c.seed))
	reused, carried := 0, 0
	for step := 0; step < c.steps; step++ {
		if c.path == "offline" {
			n = attach()
		}
		nw := n.DatabaseNetwork()
		d := randomDelta(rng, nw, changeKinds[step%len(changeKinds)])
		when := fmt.Sprintf("%v step %d (%v)", c, step, d)
		if c.path != "journaled" {
			res, err := applyNow(p, d)
			if err != nil {
				t.Fatalf("%s: ApplyDelta: %v", when, err)
			}
			reused += res.ReusedNodes
			carried += res.CarriedEdges
			assertIndexEqualsFreshBuild(t, dir, nw, when)
			continue
		}
		res, err := n.Engine().ApplyDeltaInMemory(nw, d)
		if err != nil {
			t.Fatalf("%s: ApplyDeltaInMemory: %v", when, err)
		}
		reused += res.ReusedNodes
		carried += res.CarriedEdges
		if rng.Intn(3) == 0 {
			// A second delta before the checkpoint: its previous shards
			// include ones the first left dirty on the heap.
			d = randomDelta(rng, nw, changeKinds[rng.Intn(len(changeKinds))])
			when += fmt.Sprintf(" then %v", d)
			if res, err = n.Engine().ApplyDeltaInMemory(nw, d); err != nil {
				t.Fatalf("%s: ApplyDeltaInMemory: %v", when, err)
			}
			reused += res.ReusedNodes
			carried += res.CarriedEdges
		}
		if err := n.Checkpoint(uint64(step + 1)); err != nil {
			t.Fatalf("%s: Checkpoint: %v", when, err)
		}
		assertIndexEqualsFreshBuild(t, dir, nw, when)
	}
	if reused == 0 {
		t.Fatalf("%v: no update carried a node over; the scoped rebuild was not exercised", c)
	}
	if carried == 0 {
		t.Fatalf("%v: no update carried a community over; the region was not exercised", c)
	}
}

// openWritable opens f for writing as a server or tcupdate does
// (replication.OpenPrimary), over the journal in dir, with no checkpoint
// loop.
func openWritable(t *testing.T, f *federation.Federation, dir string) *replication.Primary {
	t.Helper()
	p, _, err := replication.OpenPrimary(f, dir, replication.Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// applyNow takes d through the one write route of p's only member — journal,
// in-memory apply — and persists it at once with a checkpoint.
func applyNow(p *replication.Primary, d *delta.Delta) (*engine.DeltaResult, error) {
	ar, err := p.Apply("net", d)
	if err != nil {
		return nil, err
	}
	return ar.Result, p.Checkpoint()
}

// TestMaintainedIndexIsByteIdenticalToBuild asserts that incremental
// maintenance and a from-scratch build are the same function of the network.
// Over generated BK and AMINER networks, through randomized sequences that
// cover all six change kinds (+V, +E, -E, +T, -T, tombstone-and-repopulate),
// through every caller of the one write route (an update checkpointed at
// once, journaled updates checkpointed later, and the offline tcupdate over
// cold files) and at GOMAXPROCS 1 and 4, the index directory after every delta holds exactly
// the shards, bytes and manifest entries that Build + WriteShardedAs write for
// a pristine copy of the updated network — whether a node was mined or
// carried over from the previous version of its shard.
func TestMaintainedIndexIsByteIdenticalToBuild(t *testing.T) {
	var cases []maintainedCase
	seed := int64(1)
	for _, ds := range []struct {
		name  string
		scale gen.Scale
	}{{"BK", 0.1}, {"AMINER", 0.1}} {
		for _, path := range []string{"staged", "journaled", "offline"} {
			for _, procs := range []int{1, 4} {
				cases = append(cases, maintainedCase{dataset: ds.name, scale: ds.scale, path: path, procs: procs, seed: seed, steps: 8})
				seed++
			}
		}
	}
	// A seed that ever fails is kept as a named regression case: append its
	// maintainedCase here. (None has: 72 more runs over BK, AMINER, GW and SYN
	// at seeds 1000-1071 passed while the scoped rebuild was written.)
	for _, c := range cases {
		t.Run(c.String(), c.run)
	}
}

// rootCommunities returns the theme communities at α = 0 of every shard root
// of a fresh build of nw — the connected components of C*_p(0) for each
// top-level item p — in ascending item order.
func rootCommunities(nw *dbnet.Network) (items []itemset.Item, comms map[itemset.Item][]graph.EdgeSet) {
	comms = make(map[itemset.Item][]graph.EdgeSet)
	for _, root := range tctree.Build(nw, tctree.BuildOptions{}).Root().Children {
		items = append(items, root.Item)
		comms[root.Item] = root.Decomp.TrussAt(-1).Communities()
	}
	return items, comms
}

// regionShapes are deltas built to meet each rule of the scoped rebuild's
// region (delta.Scope.Seeds, tctree.RebuildScoped) where it matters: make
// returns the shape's delta on nw, or nil when nw offers no place for it.
var regionShapes = []struct {
	name string
	make func(nw *dbnet.Network) *delta.Delta
}{
	// A vertex that does not carry an item gains it next to an edge of the
	// item's root truss: the new triangle lies in a community no touched
	// vertex belonged to, which only the neighbours of the vertex reach.
	{"item new to its vertex", func(nw *dbnet.Network) *delta.Delta {
		items, comms := rootCommunities(nw)
		for _, it := range items {
			for _, c := range comms[it] {
				for _, e := range c.Edges() {
					for _, v := range nw.Graph().Neighbors(e.U) {
						if !nw.Database(v).ContainsItem(it) && slices.Contains(nw.Graph().Neighbors(e.V), v) {
							return &delta.Delta{AddTransactions: []delta.VertexTransaction{{Vertex: v, Tx: itemset.New(it)}}}
						}
					}
				}
			}
		}
		return nil
	}},
	// Two added edges close a triangle between two communities of one root:
	// they merge.
	{"added edges join two communities", func(nw *dbnet.Network) *delta.Delta {
		items, comms := rootCommunities(nw)
		for _, it := range items {
			if cs := comms[it]; len(cs) >= 2 {
				a, bc := cs[0].Vertices()[0], cs[1].Edges()[0]
				return &delta.Delta{AddEdges: []graph.Edge{graph.EdgeOf(a, bc.U), graph.EdgeOf(a, bc.V)}}
			}
		}
		return nil
	}},
	// A removed edge splits a community of a root in two.
	{"removed edge splits a community", func(nw *dbnet.Network) *delta.Delta {
		items, comms := rootCommunities(nw)
		for _, it := range items {
			for _, c := range comms[it] {
				for _, e := range c.Edges() {
					tn := nw.ThemeNetwork(itemset.New(it))
					tn.Edges = slices.DeleteFunc(tn.Edges, func(f graph.Edge) bool { return f == e })
					after := graph.NewEdgeSet()
					for _, f := range truss.Decompose(tn).TrussAt(-1).Edges.Edges() {
						if c.Contains(f) {
							after.Add(f)
						}
					}
					if len(after.ConnectedComponents()) > 1 {
						return &delta.Delta{RemoveEdges: []graph.Edge{e}}
					}
				}
			}
		}
		return nil
	}},
	// A vertex of a community loses every transaction that holds the root
	// item: it drops out of the item's theme network.
	{"removed transactions drop a vertex out of G_p", func(nw *dbnet.Network) *delta.Delta {
		items, comms := rootCommunities(nw)
		for _, it := range items {
			for _, c := range comms[it] {
				v := c.Vertices()[0]
				d := &delta.Delta{}
				for _, tx := range nw.Database(v).Transactions() {
					if tx.Contains(it) {
						d.RemoveTransactions = append(d.RemoveTransactions, delta.VertexTransaction{Vertex: v, Tx: tx})
					}
				}
				return d
			}
		}
		return nil
	}},
	// A vertex of a community is tombstoned.
	{"tombstone", func(nw *dbnet.Network) *delta.Delta {
		items, comms := rootCommunities(nw)
		for _, it := range items {
			for _, c := range comms[it] {
				return &delta.Delta{RemoveVertices: []graph.VertexID{c.Vertices()[0]}}
			}
		}
		return nil
	}},
}

// TestMaintainedRegionShapes applies each region shape to a fresh index of
// generated BK and GW networks — their roots hold several communities, where
// AMINER's and SYN's at this scale hold one — and asserts, as
// TestMaintainedIndexIsByteIdenticalToBuild does, that the index directory is
// what a fresh build writes — and that the rebuild carried communities over,
// so the region, not a whole-root peel, produced it.
func TestMaintainedRegionShapes(t *testing.T) {
	for _, ds := range []struct {
		name  string
		scale gen.Scale
	}{{"BK", 0.1}, {"GW", 0.1}} {
		for _, shape := range regionShapes {
			t.Run(ds.name+"/"+shape.name, func(t *testing.T) {
				data, err := gen.ByName(ds.name, ds.scale)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if _, err := tctree.Build(data.Network, tctree.BuildOptions{}).WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
					t.Fatal(err)
				}
				netPath := filepath.Join(t.TempDir(), "network.dbnet")
				if err := dbnet.WriteFileAtomic(netPath, data.Network, nil); err != nil {
					t.Fatal(err)
				}
				f := federation.New(federation.Options{})
				if err := f.AttachIndexDir("net", dir, netPath); err != nil {
					t.Fatal(err)
				}
				n, _ := f.Network("net")
				p := openWritable(t, f, filepath.Join(t.TempDir(), "journal"))
				defer p.Close()
				nw := n.DatabaseNetwork()
				d := shape.make(nw)
				if d == nil {
					t.Fatalf("%s offers no place for the shape", ds.name)
				}
				res, err := applyNow(p, d)
				if err != nil {
					t.Fatalf("ApplyDelta(%v): %v", d, err)
				}
				assertIndexEqualsFreshBuild(t, dir, nw, fmt.Sprint(d))
				if res.CarriedEdges == 0 {
					t.Fatalf("%v carried no community over", d)
				}
			})
		}
	}
}
