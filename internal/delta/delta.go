// Package delta implements incremental maintenance of a TC-Tree index: a
// Delta describes how a database network changes (edges gained or lost,
// transactions appended to vertices, new vertices), AffectedItems bounds the
// set of top-level items whose index shards can change, and Apply mutates the
// network in place. The serving layers build on these primitives —
// tctree.ShardedIndex.ApplyDelta rebuilds only the affected shards on disk,
// and engine.Engine.ApplyDelta swaps them under a live query load — so a
// growing network never forces a full re-index.
package delta

import (
	"errors"
	"fmt"
	"sort"

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

// ErrInvalid marks a delta rejected by Validate. Callers (the HTTP update
// handler) use errors.Is to distinguish a malformed delta (client error)
// from an apply/commit failure (server error).
var ErrInvalid = errors.New("invalid delta")

// Validate checks the delta against the network it is about to be applied to:
// every referenced vertex must exist (counting the delta's own AddVertices),
// edges must not be self-loops, and transactions must be non-empty. Every
// error wraps ErrInvalid.
func (d *Delta) Validate(nw *dbnet.Network) error {
	if d == nil {
		return fmt.Errorf("delta: nil delta: %w", ErrInvalid)
	}
	if d.AddVertices < 0 {
		return fmt.Errorf("delta: negative vertex count %d: %w", d.AddVertices, ErrInvalid)
	}
	n := graph.VertexID(nw.NumVertices() + d.AddVertices)
	checkVertex := func(v graph.VertexID, what string) error {
		if v < 0 || v >= n {
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
	for _, vt := range d.AddTransactions {
		if err := checkVertex(vt.Vertex, "added transaction"); err != nil {
			return err
		}
		if vt.Tx.Len() == 0 {
			return fmt.Errorf("delta: empty transaction on vertex %d: %w", vt.Vertex, ErrInvalid)
		}
	}
	for _, v := range d.RemoveVertices {
		if err := checkVertex(v, "removed vertex"); err != nil {
			return err
		}
	}
	for _, vt := range d.RemoveTransactions {
		if err := checkVertex(vt.Vertex, "removed transaction"); err != nil {
			return err
		}
		if vt.Tx.Len() == 0 {
			return fmt.Errorf("delta: empty transaction on vertex %d: %w", vt.Vertex, ErrInvalid)
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

// AffectedItems returns the set of top-level items whose TC-Tree shards can
// change when the delta is applied to nw. It must be called BEFORE Apply: the
// bound needs the pre-delta vertex databases.
//
// The bound is the union, over every vertex the delta touches, of the items
// that vertex carries, plus every item of every added or removed transaction.
// A vertex is touched when it gains or loses a transaction, when it is
// tombstoned, or when an added or removed edge is incident to it. This covers
// strictly more than "items contained in a touched transaction": appending or
// deleting any transaction on a vertex changes the denominator of f_v(p) for
// every pattern p on that vertex, so every item the vertex already carries is
// affected, not just the items of the changed transaction.
//
// Soundness: a pattern p's decomposition can only change when its theme
// network G_p changes, which requires a touched vertex v with f_v(p) > 0 —
// and f_v(p) > 0 implies every item of p (in particular the shard root,
// p's smallest item) is carried by v, so the shard root is in the returned
// set. Items outside the set therefore root shards that are byte-identical
// before and after the delta.
func AffectedItems(nw *dbnet.Network, d *Delta) itemset.Itemset {
	if d.Empty() {
		return itemset.New()
	}
	touched := make(map[graph.VertexID]bool)
	for _, e := range d.AddEdges {
		touched[e.U] = true
		touched[e.V] = true
	}
	for _, e := range d.RemoveEdges {
		touched[e.U] = true
		touched[e.V] = true
	}
	for _, v := range d.RemoveVertices {
		touched[v] = true
	}
	affected := make(map[itemset.Item]bool)
	for _, vt := range d.AddTransactions {
		touched[vt.Vertex] = true
		for _, it := range vt.Tx {
			affected[it] = true
		}
	}
	for _, vt := range d.RemoveTransactions {
		touched[vt.Vertex] = true
		for _, it := range vt.Tx {
			affected[it] = true
		}
	}
	for v := range touched {
		db := nw.Database(v)
		if db == nil {
			continue // vertex introduced by this delta: no pre-delta items
		}
		db.ItemCounts(func(it itemset.Item, _ int) { affected[it] = true })
	}
	items := make([]itemset.Item, 0, len(affected))
	for it := range affected {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return itemset.FromSorted(items)
}
