// Package txdb implements the transaction databases attached to the vertices
// of a database network (Section 3.1 of the paper).
//
// A transaction is an itemset; a Database is a multiset of transactions. The
// central operation is Frequency, which computes f_i(p): the proportion of
// transactions of a vertex database that contain a given pattern p.
package txdb

import (
	"fmt"
	"slices"

	"themecomm/internal/itemset"
)

// Transaction is a single transaction: a canonical itemset.
type Transaction = itemset.Itemset

// Database is a multiset of transactions associated with one vertex of a
// database network. The zero value is an empty database ready to use.
type Database struct {
	transactions []Transaction
	// vert is the vertical layout of the database: for every distinct item,
	// the ascending ids (indices into transactions) of the transactions that
	// contain it. It is built lazily by vertical and dropped by Add and
	// Remove; a database that is read from several goroutines must have it
	// built first (dbnet.Network.Freeze does).
	vert *verticalIndex
}

// verticalIndex stores the item → transaction-id lists of one database in
// compressed-row form: items holds the distinct items in ascending order and
// the ids of items[i] are tids[off[i]:off[i+1]], ascending.
type verticalIndex struct {
	items []itemset.Item
	off   []int32
	tids  []int32
}

// list returns the ascending ids of the transactions containing it, nil when
// no transaction does.
func (v *verticalIndex) list(it itemset.Item) []int32 {
	i, ok := slices.BinarySearch(v.items, it)
	if !ok {
		return nil
	}
	return v.tids[v.off[i]:v.off[i+1]]
}

// New returns an empty database.
func New() *Database { return &Database{} }

// FromTransactions builds a database from the given transactions. The
// transactions are canonicalized (sorted, deduplicated items) but kept as a
// multiset: identical transactions stay distinct entries.
func FromTransactions(txs ...[]itemset.Item) *Database {
	db := New()
	for _, t := range txs {
		db.Add(itemset.New(t...))
	}
	return db
}

// Add appends a transaction to the database.
func (d *Database) Add(t Transaction) {
	d.transactions = append(d.transactions, t)
	d.vert = nil
}

// Remove deletes one occurrence of an exact transaction — the same canonical
// itemset — from the multiset, reporting whether one was found. When the
// transaction occurs several times only the first occurrence is removed, so
// removing it n times undoes n additions.
func (d *Database) Remove(t Transaction) bool {
	for i, tx := range d.transactions {
		if tx.Equal(t) {
			d.transactions = append(d.transactions[:i], d.transactions[i+1:]...)
			d.vert = nil
			return true
		}
	}
	return false
}

// Len returns the number of transactions in the database.
func (d *Database) Len() int { return len(d.transactions) }

// Empty reports whether the database has no transactions.
func (d *Database) Empty() bool { return len(d.transactions) == 0 }

// Transactions returns the underlying transactions. The returned slice must
// not be modified.
func (d *Database) Transactions() []Transaction { return d.transactions }

// TotalItems returns the total number of items stored across all
// transactions (counting duplicates across transactions), as reported by
// "#Items (total)" in Table 2 of the paper.
func (d *Database) TotalItems() int {
	n := 0
	for _, t := range d.transactions {
		n += t.Len()
	}
	return n
}

// Items returns the set of distinct items appearing in the database. The
// result is a fresh itemset the caller may modify.
func (d *Database) Items() itemset.Itemset {
	return slices.Clone(d.vertical().items)
}

// Support returns the number of transactions that contain pattern p. For a
// single item it is the length of the item's transaction-id list; for longer
// patterns it is the size of the intersection of the items' lists.
func (d *Database) Support(p itemset.Itemset) int {
	switch p.Len() {
	case 0:
		return len(d.transactions)
	case 1:
		return len(d.vertical().list(p[0]))
	}
	n, _ := d.intersect(p, nil, false)
	return n
}

// TransactionsWith appends to dst the ascending ids — indices into
// Transactions() — of the transactions that contain pattern p, and returns
// the extended slice. The empty pattern selects every transaction.
func (d *Database) TransactionsWith(dst []int32, p itemset.Itemset) []int32 {
	switch p.Len() {
	case 0:
		for i := range d.transactions {
			dst = append(dst, int32(i))
		}
		return dst
	case 1:
		return append(dst, d.vertical().list(p[0])...)
	}
	_, dst = d.intersect(p, dst, true)
	return dst
}

// intersect walks the intersection of the transaction-id lists of the items
// of p (|p| ≥ 2), counting its members and, when collect is set, appending
// them to dst. It steps through the rarest item's list and advances a cursor
// in every other list, so the cost is bounded by the total length of the
// lists of p's items — not by the size of the database.
func (d *Database) intersect(p itemset.Itemset, dst []int32, collect bool) (int, []int32) {
	v := d.vertical()
	var buf [8][]int32
	lists := buf[:0]
	rarest := 0
	for i, it := range p {
		l := v.list(it)
		if len(l) == 0 {
			return 0, dst
		}
		lists = append(lists, l)
		if len(l) < len(lists[rarest]) {
			rarest = i
		}
	}
	lists[0], lists[rarest] = lists[rarest], lists[0]
	n := 0
next:
	for _, tid := range lists[0] {
		for i := 1; i < len(lists); i++ {
			l := lists[i]
			for len(l) > 0 && l[0] < tid {
				l = l[1:]
			}
			lists[i] = l
			if len(l) == 0 {
				break next
			}
			if l[0] != tid {
				continue next
			}
		}
		n++
		if collect {
			dst = append(dst, tid)
		}
	}
	return n, dst
}

// Frequency returns f(p): the proportion of transactions containing p.
// The frequency of any pattern in an empty database is 0, and the frequency
// of the empty pattern in a non-empty database is 1.
func (d *Database) Frequency(p itemset.Itemset) float64 {
	if len(d.transactions) == 0 {
		return 0
	}
	return float64(d.Support(p)) / float64(len(d.transactions))
}

// ContainsItem reports whether the item appears in at least one transaction.
func (d *Database) ContainsItem(it itemset.Item) bool {
	return len(d.vertical().list(it)) > 0
}

// vertical lazily builds the vertical layout: every (item, transaction id)
// occurrence packed into one word, sorted, then split into per-item runs.
func (d *Database) vertical() *verticalIndex {
	if d.vert != nil {
		return d.vert
	}
	// Flipping the sign bit makes the unsigned order of the packed words the
	// signed order of the items.
	const signBit = 1 << 31
	occ := make([]uint64, 0, d.TotalItems())
	for tid, t := range d.transactions {
		for _, it := range t {
			occ = append(occ, uint64(uint32(it)^signBit)<<32|uint64(uint32(tid)))
		}
	}
	slices.Sort(occ)
	v := &verticalIndex{tids: make([]int32, len(occ))}
	for i, o := range occ {
		it := itemset.Item(uint32(o>>32) ^ signBit)
		if i == 0 || it != v.items[len(v.items)-1] {
			v.items = append(v.items, it)
			v.off = append(v.off, int32(i))
		}
		v.tids[i] = int32(uint32(o))
	}
	v.off = append(v.off, int32(len(occ)))
	d.vert = v
	return v
}

// ItemCounts calls visit for every distinct item of the database, in
// ascending item order, with the number of transactions containing it.
func (d *Database) ItemCounts(visit func(it itemset.Item, count int)) {
	v := d.vertical()
	for i, it := range v.items {
		visit(it, int(v.off[i+1]-v.off[i]))
	}
}

// ItemFrequencies returns, for every distinct item in the database, the
// proportion of transactions containing it. The result is a fresh map the
// caller may modify.
func (d *Database) ItemFrequencies() map[itemset.Item]float64 {
	out := make(map[itemset.Item]float64, len(d.vertical().items))
	n := float64(len(d.transactions))
	d.ItemCounts(func(it itemset.Item, count int) {
		out[it] = float64(count) / n
	})
	return out
}

// Clone returns a deep copy of the database.
func (d *Database) Clone() *Database {
	cp := New()
	cp.transactions = make([]Transaction, len(d.transactions))
	for i, t := range d.transactions {
		cp.transactions[i] = t.Clone()
	}
	return cp
}

// String renders a short summary, e.g. "txdb.Database{5 transactions}".
func (d *Database) String() string {
	return fmt.Sprintf("txdb.Database{%d transactions}", len(d.transactions))
}

// Validate checks structural invariants of the database: transactions must be
// canonical itemsets (strictly increasing). It returns a descriptive error on
// the first violation.
func (d *Database) Validate() error {
	for i, t := range d.transactions {
		for j := 1; j < len(t); j++ {
			if t[j] <= t[j-1] {
				return fmt.Errorf("txdb: transaction %d is not a canonical itemset: %v", i, t)
			}
		}
	}
	return nil
}
