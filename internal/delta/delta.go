// Package delta implements incremental maintenance of a TC-Tree index: a
// Delta describes how a database network changes (edges gained or lost,
// transactions appended to vertices, new vertices), ScopeOf bounds the
// patterns — and with them the top-level items — whose index nodes can
// change, and Apply mutates the network in place. The serving layers build
// on these primitives — engine.Engine.ApplyDeltaInMemory rebuilds only the
// affected shards and swaps them under a live query load, and
// engine.Engine.Checkpoint commits them to the index on disk — so a growing
// network never forces a full re-index.
package delta

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/txdb"
)

// VertexTransaction is one transaction appended to a vertex database.
type VertexTransaction struct {
	// Vertex is the vertex whose database gains the transaction.
	Vertex graph.VertexID
	// Tx is the transaction (a canonical itemset).
	Tx txdb.Transaction
	// NewNames are the transaction's items given by names its network's
	// dictionary did not hold when the delta was resolved
	// (ResolveTransaction); Number gives each an item and moves it into Tx.
	// Validate refuses a transaction that still has them.
	NewNames []string
}

// Delta is one batch of changes to a database network. The zero value is the
// empty delta. Changes are applied in declaration order: vertices are added
// first, then transactions are removed, then vertices are tombstoned, then
// edges are removed, then edges are added, then transactions are appended —
// so a delta may connect and populate the vertices it introduces, and may
// reuse a vertex it tombstones.
type Delta struct {
	// AddVertices grows the network by this many vertices with empty
	// databases before any other change is applied.
	AddVertices int
	// RemoveVertices tombstones the listed vertices: every incident edge is
	// removed and the vertex database is emptied. The vertex identifier
	// itself stays valid (ids are positional across the index, the journal
	// and every replica), so removal never renumbers, and a tombstoned
	// vertex may be reconnected by the same or a later delta. Tombstoning a
	// vertex twice is a harmless no-op.
	RemoveVertices []graph.VertexID
	// AddEdges are the edges to insert. Adding an existing edge is a no-op.
	AddEdges []graph.Edge
	// RemoveEdges are the edges to delete. Removing an absent edge is a no-op.
	RemoveEdges []graph.Edge
	// AddTransactions are the transactions to append, each on its vertex.
	AddTransactions []VertexTransaction
	// RemoveTransactions delete one occurrence each of an exact transaction
	// (same canonical itemset) from their vertex's database. Removing an
	// absent transaction is a harmless no-op.
	RemoveTransactions []VertexTransaction
	// Names are the dictionary entries the delta introduces, ascending by
	// item (Number): the names of the new items its transactions use. Apply
	// changes the network alone and ignores them; Intern enters them into the
	// network's dictionary, and a journal record carries them as I lines, so
	// every replay names the items as the primary did.
	Names []ItemName
}

// ItemName is one dictionary entry of a delta: Item is named Name.
type ItemName struct {
	Item itemset.Item
	Name string
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return d == nil || (d.AddVertices == 0 && len(d.RemoveVertices) == 0 &&
		len(d.AddEdges) == 0 && len(d.RemoveEdges) == 0 &&
		len(d.AddTransactions) == 0 && len(d.RemoveTransactions) == 0)
}

// Stats summarises the delta for logs and HTTP responses.
func (d *Delta) String() string {
	if d == nil {
		return "delta{}"
	}
	s := fmt.Sprintf("delta{+V=%d, +E=%d, -E=%d, +T=%d",
		d.AddVertices, len(d.AddEdges), len(d.RemoveEdges), len(d.AddTransactions))
	if len(d.RemoveVertices) > 0 || len(d.RemoveTransactions) > 0 {
		s += fmt.Sprintf(", -V=%d, -T=%d", len(d.RemoveVertices), len(d.RemoveTransactions))
	}
	return s + "}"
}

// ResolveTransaction returns the transaction of vertex v whose items are
// fields, resolved through dict without changing it: a numeric field is the
// item it names (itemset.ParseID), a name dict holds is its item, and any
// other name is one the delta introduces — it waits in NewNames until Number
// gives it an item under the network's update lock.
func ResolveTransaction(v graph.VertexID, fields []string, dict *itemset.Dictionary) (VertexTransaction, error) {
	vt := VertexTransaction{Vertex: v}
	items := make([]itemset.Item, 0, len(fields))
	for _, field := range fields {
		id, numeric, err := itemset.ParseID(field)
		switch {
		case numeric && err != nil:
			return vt, err
		case numeric:
		case dict == nil:
			return vt, fmt.Errorf("item %q is not numeric and no dictionary is available", field)
		default:
			var known bool
			if id, known = dict.Lookup(field); !known {
				vt.NewNames = append(vt.NewNames, field)
				continue
			}
		}
		items = append(items, id)
	}
	vt.Tx = itemset.New(items...)
	return vt, nil
}

// Number gives the names the delta's transactions introduce (NewNames) their
// items against dict as it stands, under the network's update lock, so each
// name is numbered once: a name dict holds by now (an update accepted since
// this one was resolved introduced it) takes its item, and every other name
// takes the next item past dict's end and past every item the delta gives by
// number. Names becomes every entry dict gains with the delta, ascending: a
// placeholder (itemset.Placeholder, never one of the delta's names) for each
// item the delta introduces by number, then the new names — so a replay that
// interns Names leaves its dictionary naming every item as this one does. dict
// is not changed: Intern enters Names once the delta is accepted.
func (d *Delta) Number(dict *itemset.Dictionary) {
	if dict == nil {
		return
	}
	txs := [][]VertexTransaction{d.AddTransactions, d.RemoveTransactions}
	end := dict.Len()
	ids := map[string]itemset.Item{} // each new name's item, -1 until numbered
	for _, list := range txs {
		for _, vt := range list {
			if n := vt.Tx.Len(); n > 0 {
				end = max(end, int(vt.Tx[n-1])+1)
			}
			for _, name := range vt.NewNames {
				id, known := dict.Lookup(name)
				if !known {
					id = -1
				}
				ids[name] = id
			}
		}
	}
	taken := func(name string) bool {
		_, known := dict.Lookup(name)
		_, named := ids[name]
		return known || named
	}
	d.Names = nil
	for id := dict.Len(); id < end; id++ {
		d.Names = append(d.Names, ItemName{Item: itemset.Item(id), Name: itemset.Placeholder(id, taken)})
	}
	next := itemset.Item(end)
	for _, list := range txs {
		for i := range list {
			vt := &list[i]
			if len(vt.NewNames) == 0 {
				continue
			}
			items := slices.Clone(vt.Tx)
			for _, name := range vt.NewNames {
				id := ids[name]
				if id < 0 {
					id, next = next, next+1
					ids[name] = id
					d.Names = append(d.Names, ItemName{Item: id, Name: name})
				}
				items = append(items, id)
			}
			vt.Tx, vt.NewNames = itemset.New(items...), nil
		}
	}
}

// Intern enters the delta's Names into dict, each at its item: an item dict
// names already must carry the same name, and every other entry must be the
// next item past dict's end. A name that contradicts dict — another name at
// its item, the name at another item, or an item past the end — stops Intern
// with an error; the entries before it stay.
func (d *Delta) Intern(dict *itemset.Dictionary) error {
	if dict == nil {
		return nil
	}
	for _, n := range d.Names {
		if int(n.Item) < dict.Len() {
			if name, _ := dict.Name(n.Item); name != n.Name {
				return fmt.Errorf("delta: names item %d %q, the dictionary %q", n.Item, n.Name, name)
			}
			continue
		}
		if int(n.Item) > dict.Len() {
			return fmt.Errorf("delta: names item %d %q past the dictionary's end %d", n.Item, n.Name, dict.Len())
		}
		if id := dict.Intern(n.Name); id != n.Item {
			return fmt.Errorf("delta: names item %d %q, the dictionary's item %d", n.Item, n.Name, id)
		}
	}
	return nil
}

// ErrInvalid marks a delta rejected by Validate. Callers (the HTTP update
// handler) use errors.Is to distinguish a malformed delta (client error)
// from an apply/commit failure (server error).
var ErrInvalid = errors.New("invalid delta")

// Validate checks the delta against the network it is about to be applied to:
// every referenced vertex must exist (counting the delta's own AddVertices),
// the vertex count must stay within graph.MaxVertices, edges must not be
// self-loops, transactions must be non-empty with every item numbered
// (Number), and the names must read back
// from record lines as themselves (ascending by item, no stray whitespace).
// Every error wraps ErrInvalid.
func (d *Delta) Validate(nw *dbnet.Network) error {
	if d == nil {
		return fmt.Errorf("delta: nil delta: %w", ErrInvalid)
	}
	for i, n := range d.Names {
		if n.Name == "" || strings.Join(strings.Fields(n.Name), " ") != n.Name {
			return fmt.Errorf("delta: item name %q is empty or has leading, trailing or repeated whitespace: %w", n.Name, ErrInvalid)
		}
		if i > 0 && n.Item <= d.Names[i-1].Item {
			return fmt.Errorf("delta: item %d named out of ascending order: %w", n.Item, ErrInvalid)
		}
	}
	if d.AddVertices < 0 {
		return fmt.Errorf("delta: negative vertex count %d: %w", d.AddVertices, ErrInvalid)
	}
	n := nw.NumVertices() + d.AddVertices // both non-negative: a wrapped sum is negative
	if err := graph.CheckVertexCount(n); err != nil {
		return fmt.Errorf("delta: adding %d vertices to %d: %w: %w", d.AddVertices, nw.NumVertices(), err, ErrInvalid)
	}
	checkVertex := func(v graph.VertexID, what string) error {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("delta: %s references vertex %d out of range [0,%d): %w", what, v, n, ErrInvalid)
		}
		return nil
	}
	for _, e := range d.AddEdges {
		if e.U == e.V {
			return fmt.Errorf("delta: self-loop edge on vertex %d: %w", e.U, ErrInvalid)
		}
		if err := checkVertex(e.U, "added edge"); err != nil {
			return err
		}
		if err := checkVertex(e.V, "added edge"); err != nil {
			return err
		}
	}
	for _, e := range d.RemoveEdges {
		if err := checkVertex(e.U, "removed edge"); err != nil {
			return err
		}
		if err := checkVertex(e.V, "removed edge"); err != nil {
			return err
		}
	}
	checkTx := func(vt VertexTransaction, what string) error {
		if err := checkVertex(vt.Vertex, what); err != nil {
			return err
		}
		if len(vt.NewNames) > 0 {
			return fmt.Errorf("delta: %s on vertex %d names items not numbered yet (Number): %w", what, vt.Vertex, ErrInvalid)
		}
		if vt.Tx.Len() == 0 {
			return fmt.Errorf("delta: empty transaction on vertex %d: %w", vt.Vertex, ErrInvalid)
		}
		return nil
	}
	for _, vt := range d.AddTransactions {
		if err := checkTx(vt, "added transaction"); err != nil {
			return err
		}
	}
	for _, v := range d.RemoveVertices {
		if err := checkVertex(v, "removed vertex"); err != nil {
			return err
		}
	}
	for _, vt := range d.RemoveTransactions {
		if err := checkTx(vt, "removed transaction"); err != nil {
			return err
		}
	}
	return nil
}

// Apply mutates the network in place: vertices are added, removed
// transactions deleted, removed vertices tombstoned, removed edges deleted,
// added edges inserted, and transactions appended, in that order — removals
// precede additions so a delta may tombstone a vertex and immediately
// repopulate it. The network's mutators keep its item index current by
// patching the touched vertices' entries, and Apply re-freezes the network,
// so it is safe to read concurrently again once Apply returns — at a cost
// that follows the delta, not the size of the network. Apply validates the
// delta first and changes nothing when validation fails.
func Apply(nw *dbnet.Network, d *Delta) error {
	if err := d.Validate(nw); err != nil {
		return err
	}
	if d.AddVertices > 0 {
		nw.AddVertices(d.AddVertices)
	}
	for _, vt := range d.RemoveTransactions {
		if _, err := nw.RemoveTransaction(vt.Vertex, vt.Tx); err != nil {
			return err
		}
	}
	for _, v := range d.RemoveVertices {
		if err := nw.ClearVertex(v); err != nil {
			return err
		}
	}
	for _, e := range d.RemoveEdges {
		nw.RemoveEdge(e.U, e.V)
	}
	for _, e := range d.AddEdges {
		if err := nw.AddEdge(e.U, e.V); err != nil {
			return err
		}
	}
	for _, vt := range d.AddTransactions {
		if err := nw.AddTransaction(vt.Vertex, vt.Tx); err != nil {
			return err
		}
	}
	nw.Freeze()
	return nil
}

// Scope is the proof of what a delta can change, as plain data: which
// patterns (Witnesses), and where in the network (Touched, with Linked and
// Gained for the triangles a delta may close).
//
// A pattern p contained in no witness is out of scope, and its TC-Tree node
// is the same before and after the delta: no touched vertex has f_v(p) > 0
// on either side (a vertex's post-delta transactions are pre-delta or added
// ones), so no touched vertex and no changed edge — each is incident to one
// — belongs to the theme network G_p, and every other vertex keeps its
// database and with it f_v(p). G_p is unchanged, and a node is a function of
// G_p alone (Theorem 6.1). The scope is downward-closed — a subset of an
// in-scope pattern is in scope — so every pattern extending one that is out
// of scope is out of scope with it: a whole subtree is carried over at once
// (tctree.RebuildScoped).
//
// An in-scope node changes only in the theme communities Seeds names: every
// other community of it keeps its edges and its levels (tctree.RebuildScoped
// carries them over too).
type Scope struct {
	// Witnesses are the witness transactions of every vertex the delta
	// touches — its whole pre-delta database plus every transaction the
	// delta adds or removes — distinct and in itemset.Compare order.
	Witnesses []itemset.Itemset
	// Touched are the vertices the delta touches, ascending: a vertex is
	// touched when it gains or loses a transaction, when it is tombstoned,
	// or when an added or removed edge is incident to it.
	Touched []graph.VertexID
	// Linked are the endpoints of the added edges, ascending.
	Linked []graph.VertexID
	// Gained lists, ascending by vertex, every vertex that gains
	// transactions with the items they bring that its pre-delta database
	// does not hold.
	Gained []Gain
}

// Gain is one vertex's new items: items of the transactions a delta adds to
// the vertex that its database did not hold before the delta.
type Gain struct {
	Vertex graph.VertexID
	Items  itemset.Itemset
}

// ScopeOf computes the delta's scope on nw. It must be called BEFORE Apply:
// the witnesses include the pre-delta vertex databases.
func ScopeOf(nw *dbnet.Network, d *Delta) Scope {
	if d.Empty() {
		return Scope{}
	}
	var s Scope
	for _, e := range d.AddEdges {
		s.Linked = append(s.Linked, e.U, e.V)
	}
	s.Touched = slices.Clone(s.Linked)
	for _, e := range d.RemoveEdges {
		s.Touched = append(s.Touched, e.U, e.V)
	}
	s.Touched = append(s.Touched, d.RemoveVertices...)
	gained := make(map[graph.VertexID][]itemset.Item)
	for _, vt := range d.AddTransactions {
		s.Touched = append(s.Touched, vt.Vertex)
		s.Witnesses = append(s.Witnesses, vt.Tx)
		db := nw.Database(vt.Vertex)
		for _, it := range vt.Tx {
			// A vertex this delta introduces has no pre-delta database.
			if db == nil || !db.ContainsItem(it) {
				gained[vt.Vertex] = append(gained[vt.Vertex], it)
			}
		}
	}
	for _, vt := range d.RemoveTransactions {
		s.Touched = append(s.Touched, vt.Vertex)
		s.Witnesses = append(s.Witnesses, vt.Tx)
	}
	slices.Sort(s.Linked)
	s.Linked = slices.Compact(s.Linked)
	slices.Sort(s.Touched)
	s.Touched = slices.Compact(s.Touched)
	for _, v := range s.Touched {
		if db := nw.Database(v); db != nil {
			s.Witnesses = append(s.Witnesses, db.Transactions()...)
		}
		if items, ok := gained[v]; ok {
			s.Gained = append(s.Gained, Gain{Vertex: v, Items: itemset.New(items...)})
		}
	}
	itemset.Sort(s.Witnesses)
	s.Witnesses = slices.CompactFunc(s.Witnesses, itemset.Itemset.Equal)
	return s
}

// Seeds returns, ascending, the vertices of nw — the network after the
// delta — that every theme community of G_item the delta changed holds one
// of: the touched vertices, and the neighbours of every touched vertex of
// G_item that can close a triangle G_item did not have — an endpoint of an
// added edge, or a vertex whose added transactions bring the item.
//
// A community of G_item's maximal pattern truss at α = 0 that holds no seed
// is a community after the delta too, with the same edges, the same
// frequencies and so the same levels: its vertices keep their databases and
// its edges their triangles, and a triangle G_item gains has a closer among
// its vertices and the closer's neighbours for the other two, so none of
// them joins the community. The same holds for every pattern that contains
// the item, whose theme network lies inside G_item's.
func (s Scope) Seeds(nw *dbnet.Network, item itemset.Item) []graph.VertexID {
	closers := slices.Clone(s.Linked)
	for _, g := range s.Gained {
		if g.Items.Contains(item) {
			closers = append(closers, g.Vertex)
		}
	}
	out := slices.Clone(s.Touched)
	for _, v := range closers {
		// A vertex outside G_item closes no triangle of it.
		if db := nw.Database(v); db != nil && db.ContainsItem(item) {
			out = append(out, nw.Graph().Neighbors(v)...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Items returns the set of top-level items whose TC-Tree shards the delta
// can change: every item of every witness. A pattern in scope lies inside a
// witness, so its shard root — its smallest item — is in the set; shards
// rooted outside it are byte-identical before and after the delta. The set
// is wider than "items of the changed transactions": appending or deleting
// any transaction on a vertex changes the denominator of f_v(p) for every
// pattern on that vertex, so every item the vertex already carries counts.
func (s Scope) Items() itemset.Itemset {
	var items []itemset.Item
	for _, w := range s.Witnesses {
		items = append(items, w...)
	}
	return itemset.New(items...)
}

// AffectedItems is ScopeOf(nw, d).Items() for callers that rebuild whole
// shards. Like ScopeOf it must be called BEFORE Apply.
func AffectedItems(nw *dbnet.Network, d *Delta) itemset.Itemset {
	return ScopeOf(nw, d).Items()
}
