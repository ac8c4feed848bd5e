// Package dbnet implements the database network data model of Section 3.1 of
// the paper: an undirected graph in which every vertex carries a transaction
// database, together with the induction of theme networks G_p for a pattern p.
package dbnet

import (
	"cmp"
	"fmt"
	"slices"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/txdb"
)

// Network is a database network G = (V, E, D, S): a simple undirected graph
// whose vertices each carry a transaction database. The item universe S is
// the union of all items appearing in the vertex databases.
type Network struct {
	g   *graph.Graph
	dbs []*txdb.Database

	// itemVertices lazily maps each item to the sorted list of vertices whose
	// database contains the item, together with the item's frequency on that
	// vertex. It accelerates theme-network induction. Once built, the
	// mutating methods keep it current by patching the touched vertex's
	// entries (reindexVertex); InvalidateCaches drops it.
	itemVertices map[itemset.Item][]VertexFrequency
}

// VertexFrequency pairs a vertex with a pattern frequency on that vertex.
type VertexFrequency struct {
	Vertex    graph.VertexID
	Frequency float64
}

// New returns a database network with n vertices, no edges and empty vertex
// databases.
func New(n int) *Network {
	dbs := make([]*txdb.Database, n)
	for i := range dbs {
		dbs[i] = txdb.New()
	}
	return &Network{g: graph.New(n), dbs: dbs}
}

// NumVertices returns |V|.
func (nw *Network) NumVertices() int { return nw.g.NumVertices() }

// NumEdges returns |E|.
func (nw *Network) NumEdges() int { return nw.g.NumEdges() }

// Graph returns the underlying graph. The returned graph must not be modified
// directly; use AddEdge on the network.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// AddEdge inserts the undirected edge (a, b).
func (nw *Network) AddEdge(a, b graph.VertexID) error {
	return nw.g.AddEdge(a, b)
}

// MustAddEdge is AddEdge but panics on error.
func (nw *Network) MustAddEdge(a, b graph.VertexID) {
	if err := nw.AddEdge(a, b); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge (a, b), reporting whether it was
// present. Removing an absent edge is a harmless no-op.
func (nw *Network) RemoveEdge(a, b graph.VertexID) bool {
	return nw.g.RemoveEdge(a, b)
}

// AddVertices grows the network by n vertices with empty transaction
// databases, returning the new vertex count. New vertices carry no items, so
// they change no theme network until they gain transactions or edges.
func (nw *Network) AddVertices(n int) int {
	for i := 0; i < n; i++ {
		nw.dbs = append(nw.dbs, txdb.New())
		nw.reindexVertex(graph.VertexID(len(nw.dbs)-1), nil) // freezes the empty database
	}
	return nw.g.AddVertices(n)
}

// Database returns the transaction database of vertex v.
func (nw *Network) Database(v graph.VertexID) *txdb.Database {
	if int(v) < 0 || int(v) >= len(nw.dbs) {
		return nil
	}
	return nw.dbs[v]
}

// AddTransaction appends a transaction to the database of vertex v.
func (nw *Network) AddTransaction(v graph.VertexID, t txdb.Transaction) error {
	db := nw.Database(v)
	if db == nil {
		return fmt.Errorf("dbnet: vertex %d out of range [0,%d)", v, len(nw.dbs))
	}
	db.Add(t)
	nw.reindexVertex(v, nil)
	return nil
}

// RemoveTransaction deletes one occurrence of an exact transaction from the
// database of vertex v, reporting whether one was found. Removing an absent
// transaction is a harmless no-op (mirroring RemoveEdge).
func (nw *Network) RemoveTransaction(v graph.VertexID, t txdb.Transaction) (bool, error) {
	db := nw.Database(v)
	if db == nil {
		return false, fmt.Errorf("dbnet: vertex %d out of range [0,%d)", v, len(nw.dbs))
	}
	removed := db.Remove(t)
	if removed {
		nw.reindexVertex(v, t)
	}
	return removed, nil
}

// ClearVertex tombstones vertex v: every incident edge is removed and its
// transaction database is emptied. The vertex identifier stays valid — vertex
// ids are positional across the index, the journal and every replica, so
// removal never renumbers — and the cleared vertex may later be reconnected
// and repopulated by subsequent deltas.
func (nw *Network) ClearVertex(v graph.VertexID) error {
	if int(v) < 0 || int(v) >= len(nw.dbs) {
		return fmt.Errorf("dbnet: vertex %d out of range [0,%d)", v, len(nw.dbs))
	}
	for _, w := range append([]graph.VertexID(nil), nw.g.Neighbors(v)...) {
		nw.g.RemoveEdge(v, w)
	}
	nw.replaceDatabase(v, txdb.New())
	return nil
}

// SetDatabase replaces the database of vertex v.
func (nw *Network) SetDatabase(v graph.VertexID, db *txdb.Database) error {
	if int(v) < 0 || int(v) >= len(nw.dbs) {
		return fmt.Errorf("dbnet: vertex %d out of range [0,%d)", v, len(nw.dbs))
	}
	if db == nil {
		db = txdb.New()
	}
	nw.replaceDatabase(v, db)
	return nil
}

// replaceDatabase swaps in a new database for vertex v and re-indexes it.
func (nw *Network) replaceDatabase(v graph.VertexID, db *txdb.Database) {
	var stale itemset.Itemset
	if nw.itemVertices != nil {
		stale = nw.dbs[v].Items()
	}
	nw.dbs[v] = db
	nw.reindexVertex(v, stale)
}

// Frequency returns f_v(p): the frequency of pattern p in the database of
// vertex v. Out-of-range vertices have frequency 0.
func (nw *Network) Frequency(v graph.VertexID, p itemset.Itemset) float64 {
	db := nw.Database(v)
	if db == nil {
		return 0
	}
	return db.Frequency(p)
}

// Items returns the item universe S: the union of all items appearing in any
// vertex database, sorted.
func (nw *Network) Items() itemset.Itemset {
	idx := nw.itemIndex()
	items := make([]itemset.Item, 0, len(idx))
	for it := range idx {
		items = append(items, it)
	}
	slices.Sort(items)
	return itemset.FromSorted(items)
}

// ItemVertices returns, for item it, the vertices whose database contains it
// together with the item frequency on each vertex, sorted by vertex. The
// returned slice must not be modified.
func (nw *Network) ItemVertices(it itemset.Item) []VertexFrequency {
	return nw.itemIndex()[it]
}

func (nw *Network) itemIndex() map[itemset.Item][]VertexFrequency {
	if nw.itemVertices != nil {
		return nw.itemVertices
	}
	// Vertices are visited in ascending order, so every list comes out
	// sorted by vertex.
	idx := make(map[itemset.Item][]VertexFrequency)
	for v, db := range nw.dbs {
		n := float64(db.Len())
		db.ItemCounts(func(it itemset.Item, count int) {
			idx[it] = append(idx[it], VertexFrequency{Vertex: graph.VertexID(v), Frequency: float64(count) / n})
		})
	}
	nw.itemVertices = idx
	return idx
}

// reindexVertex brings a built item index up to date with the database of
// vertex v after a mutation, touching only the lists of the items v carries
// (or carried): every item of the database gets v's current frequency,
// inserted at v's sorted position when it is new, and every item of stale —
// the items v may have lost — that the database no longer holds drops v.
// The result equals the index rebuilt from scratch. When no index is built
// there is nothing to patch: the next read builds it whole.
func (nw *Network) reindexVertex(v graph.VertexID, stale itemset.Itemset) {
	if nw.itemVertices == nil {
		return
	}
	byVertex := func(vf VertexFrequency, v graph.VertexID) int { return cmp.Compare(vf.Vertex, v) }
	db := nw.dbs[v]
	n := float64(db.Len())
	db.ItemCounts(func(it itemset.Item, count int) {
		l := nw.itemVertices[it]
		vf := VertexFrequency{Vertex: v, Frequency: float64(count) / n}
		if i, found := slices.BinarySearchFunc(l, v, byVertex); found {
			l[i] = vf
		} else {
			nw.itemVertices[it] = slices.Insert(l, i, vf)
		}
	})
	for _, it := range stale {
		if db.ContainsItem(it) {
			continue
		}
		l := nw.itemVertices[it]
		if i, found := slices.BinarySearchFunc(l, v, byVertex); found {
			if len(l) == 1 {
				delete(nw.itemVertices, it)
			} else {
				nw.itemVertices[it] = slices.Delete(l, i, i+1)
			}
		}
	}
}

// InvalidateCaches drops the lazily built item index, so the next read
// rebuilds it from every vertex database. The network's own mutating methods
// keep the index current and never need it; callers that mutate vertex
// databases obtained via Database directly must call it themselves.
func (nw *Network) InvalidateCaches() { nw.itemVertices = nil }

// Freeze finalizes every lazily built internal structure (sorted adjacency
// lists, the per-item vertex index, the vertical layout of every vertex
// database) so that the network can afterwards be read concurrently from
// multiple goroutines. It must be called again after any mutation before
// resuming concurrent reads; after mutations made through the network's own
// methods the item index and the touched databases are already current, so
// that costs at most a re-sort of the adjacency lists (when edges were added).
func (nw *Network) Freeze() {
	nw.g.Sort()
	nw.itemIndex()
}

// Validate checks the structural invariants of the network: every vertex
// database is canonical. Graph invariants (no self-loops, no duplicates) are
// enforced at construction time.
func (nw *Network) Validate() error {
	for v, db := range nw.dbs {
		if err := db.Validate(); err != nil {
			return fmt.Errorf("dbnet: vertex %d: %w", v, err)
		}
	}
	return nil
}

// Stats summarises the network as reported in Table 2 of the paper.
type Stats struct {
	Vertices     int // |V|
	Edges        int // |E|
	Transactions int // total number of transactions across all vertex databases
	ItemsTotal   int // total number of items stored in all vertex databases
	ItemsUnique  int // |S|
}

// Stats computes the Table 2 statistics of the network.
func (nw *Network) Stats() Stats {
	s := Stats{Vertices: nw.NumVertices(), Edges: nw.NumEdges()}
	for _, db := range nw.dbs {
		s.Transactions += db.Len()
		s.ItemsTotal += db.TotalItems()
	}
	s.ItemsUnique = len(nw.itemIndex())
	return s
}

// InducedByEdges returns a new network containing exactly the given edges and
// the vertices incident to them. Vertex identifiers are remapped densely in
// ascending order of the original identifiers; the mapping from new to
// original identifiers is returned alongside. Vertex databases are shared
// with the original network (they are not copied), matching the BFS-sampling
// methodology of Section 7.1.
func (nw *Network) InducedByEdges(edges []graph.Edge) (*Network, []graph.VertexID) {
	present := make(map[graph.VertexID]bool)
	for _, e := range edges {
		present[e.U] = true
		present[e.V] = true
	}
	orig := make([]graph.VertexID, 0, len(present))
	for v := range present {
		orig = append(orig, v)
	}
	graph.SortVertices(orig)
	remap := make(map[graph.VertexID]graph.VertexID, len(orig))
	for i, v := range orig {
		remap[v] = graph.VertexID(i)
	}
	sub := New(len(orig))
	for i, v := range orig {
		sub.dbs[i] = nw.dbs[v]
	}
	for _, e := range edges {
		sub.MustAddEdge(remap[e.U], remap[e.V])
	}
	return sub, orig
}

// String renders a short summary of the network.
func (nw *Network) String() string {
	return fmt.Sprintf("dbnet.Network{|V|=%d, |E|=%d}", nw.NumVertices(), nw.NumEdges())
}
