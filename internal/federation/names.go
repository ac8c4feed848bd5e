package federation

import (
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// QuotedNames is a network's item and vertex names, each JSON-quoted once,
// for answer encoders that write communities straight to bytes. Every name
// is quoted with json.Marshal, so its escaping is encoding/json's by
// construction. The item table is built on first use and extended
// append-only when the dictionary grows (a dictionary never renames an
// item); the vertex table is built on first use from the display names
// fixed at attach. Both belong to the Network and go with it when it
// detaches.
//
// Readers take no lock: each table is an immutable snapshot behind an
// atomic pointer. Growth appends past the end of the current snapshot's
// slices, which no reader of that snapshot ever reads.
type QuotedNames struct {
	dict        *itemset.Dictionary
	vertexNames []string
	// mu serializes building and growing the tables.
	mu       sync.Mutex
	items    atomic.Pointer[quotedRun]
	vertices atomic.Pointer[quotedRun]
}

// quotedRun is a run of JSON-quoted names: name i is buf[end[i-1]:end[i]],
// with end[-1] taken as 0.
type quotedRun struct {
	buf []byte
	end []uint32
}

// appendName appends the quoted name of identifier id, or id itself as a
// JSON string when the run does not hold it.
func (q *quotedRun) appendName(dst []byte, id int64) []byte {
	if id < 0 || id >= int64(len(q.end)) {
		dst = append(dst, '"')
		dst = strconv.AppendInt(dst, id, 10)
		return append(dst, '"')
	}
	start := uint32(0)
	if id > 0 {
		start = q.end[id-1]
	}
	return append(dst, q.buf[start:q.end[id]]...)
}

// grow returns q extended by the quoted form of names.
func (q *quotedRun) grow(names []string) *quotedRun {
	next := *q
	for _, name := range names {
		b, _ := json.Marshal(name) // a string always marshals
		next.buf = append(next.buf, b...)
		next.end = append(next.end, uint32(len(next.buf)))
	}
	return &next
}

// NewQuotedNames returns the name tables of items named by dict and
// vertices named by vertexNames; either may be nil. Nothing is quoted until
// the first name is asked for.
func NewQuotedNames(dict *itemset.Dictionary, vertexNames []string) *QuotedNames {
	return &QuotedNames{dict: dict, vertexNames: vertexNames}
}

// AppendItems appends pattern p as a JSON array of item names: each item's
// dictionary name, or its decimal identifier when the dictionary does not
// name it.
func (n *QuotedNames) AppendItems(dst []byte, p itemset.Itemset) []byte {
	q := n.items.Load()
	dst = append(dst, '[')
	for i, it := range p {
		if i > 0 {
			dst = append(dst, ',')
		}
		if q == nil || int(it) >= len(q.end) {
			q = n.growItems(int(it))
		}
		dst = q.appendName(dst, int64(it))
	}
	return append(dst, ']')
}

// AppendVertices appends vs as a JSON array of vertex names: each vertex's
// display name, or its decimal identifier when the network has none for it.
func (n *QuotedNames) AppendVertices(dst []byte, vs []graph.VertexID) []byte {
	q := n.vertexRun()
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = q.appendName(dst, int64(v))
	}
	return append(dst, ']')
}

// AppendVertex appends the JSON string naming vertex v.
func (n *QuotedNames) AppendVertex(dst []byte, v graph.VertexID) []byte {
	return n.vertexRun().appendName(dst, int64(v))
}

// growItems returns the item table extended to every name the dictionary
// holds now, when that covers item want; otherwise the table as it is.
func (n *QuotedNames) growItems(want int) *quotedRun {
	if q := n.items.Load(); q != nil && (n.dict == nil || want >= n.dict.Len()) {
		return q // no name to add: the item renders as its identifier
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.items.Load()
	if q == nil {
		q = &quotedRun{}
	}
	if n.dict != nil {
		var names []string
		for i, size := len(q.end), n.dict.Len(); i < size; i++ {
			name, _ := n.dict.Name(itemset.Item(i)) // i < Len: always named
			names = append(names, name)
		}
		q = q.grow(names)
	}
	n.items.Store(q)
	return q
}

// vertexRun returns the vertex table, building it on first use.
func (n *QuotedNames) vertexRun() *quotedRun {
	if q := n.vertices.Load(); q != nil {
		return q
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.vertices.Load()
	if q == nil {
		q = (&quotedRun{}).grow(n.vertexNames)
		n.vertices.Store(q)
	}
	return q
}
