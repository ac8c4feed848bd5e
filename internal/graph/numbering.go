package graph

import "sync"

// Numbering maps every vertex of one run to its position in the run: the
// local numbering the miner carries from a theme network through the peel
// to the encoder, so no step searches, sorts or hashes vertex ids again. A
// lookup is one subtraction and one load.
//
// The table is a window over the ids it holds, from the smallest to the
// largest, so it is sized by those ids alone: 4 bytes per id of that span
// (a database network numbers its vertices densely, so a run of it spans at
// most the network). Any int32 id is accepted, negative ones too. A table
// comes from a pool and goes back to it with Release, which clears only the
// entries the run set: a table grown for a wide run costs a short one only
// its own length.
type Numbering struct {
	// base is the smallest id held; slot[v-base] is v's position plus one,
	// zero where v is not held. Between uses every slot is zero.
	base VertexID
	slot []int32
	// held is a copy of the run, the entries Release clears.
	held []VertexID
}

var numberingPool = sync.Pool{New: func() any { return new(Numbering) }}

// NumberRun returns a table that maps run[i] to i, in any order of the run;
// an id the run repeats keeps its last position. The table does not refer
// to run afterwards. Call Release when done with it.
func NumberRun(run []VertexID) *Numbering {
	n := numberingPool.Get().(*Numbering)
	n.fill(run)
	return n
}

// Index returns the position of v in the run, and whether the run holds v.
func (n *Numbering) Index(v VertexID) (int, bool) {
	k := uint32(v) - uint32(n.base)
	if k >= uint32(len(n.slot)) {
		return 0, false
	}
	s := n.slot[k]
	return int(s) - 1, s != 0
}

// Release clears the entries the run set and returns the table to the
// pool. The table must not be used afterwards.
func (n *Numbering) Release() {
	n.clear()
	numberingPool.Put(n)
}

// fill numbers run in a table whose every slot is zero.
func (n *Numbering) fill(run []VertexID) {
	n.held = append(n.held[:0], run...)
	if len(run) == 0 {
		n.slot = n.slot[:0]
		return
	}
	lo, hi := run[0], run[0]
	for _, v := range run[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	// Every slot is zero, so the window moves for free. The span is
	// computed in uint32, where hi - lo cannot overflow.
	span := int(uint32(hi)-uint32(lo)) + 1
	if cap(n.slot) < span {
		n.slot = make([]int32, span)
	}
	n.base, n.slot = lo, n.slot[:span]
	for i, v := range run {
		n.slot[uint32(v)-uint32(lo)] = int32(i) + 1
	}
}

// clear zeroes the slots the run set.
func (n *Numbering) clear() {
	for _, v := range n.held {
		n.slot[uint32(v)-uint32(n.base)] = 0
	}
	n.held = n.held[:0]
}
