package dbnet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"themecomm/internal/durable"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// The on-disk format is a simple line-oriented text format:
//
//	DBNET 1
//	V <numVertices>
//	I <itemID> <item name ...>        (optional, one per named item)
//	E <u> <v>                         (one per edge)
//	T <vertex> <itemID> <itemID> ...  (one per transaction)
//
// It shares its grammar with the TCDELTA format of internal/delta, and one
// RecordScanner reads both: one record per line, whitespace-separated fields
// with the record type first, the header as the first record line, and blank
// lines and lines starting with '#' ignored wherever they appear (the
// "# journal-seq" stamp before the header among them). Vertex and item ids
// are decimal and lie in [0, 2147483647], an edge joins two distinct
// vertices, and a vertex count is at most graph.MaxVertices: an id outside
// the range is refused, never wrapped onto another. The format is designed
// to be diffable, streamable and easy to generate from other tooling.

const formatHeader = "DBNET 1"

// Write serializes the network (and optionally the item dictionary) to w.
func Write(w io.Writer, nw *Network, dict *itemset.Dictionary) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, formatHeader); err != nil {
		return err
	}
	fmt.Fprintf(bw, "V %d\n", nw.NumVertices())
	if dict != nil {
		for id := 0; id < dict.Len(); id++ {
			name, err := dict.Name(itemset.Item(id))
			if err != nil {
				return err
			}
			fmt.Fprintf(bw, "I %d %s\n", id, name)
		}
	}
	for _, e := range nw.Graph().Edges() {
		fmt.Fprintf(bw, "E %d %d\n", e.U, e.V)
	}
	for v := 0; v < nw.NumVertices(); v++ {
		for _, t := range nw.Database(graph.VertexID(v)).Transactions() {
			WriteTransaction(bw, "T", graph.VertexID(v), t)
		}
	}
	return bw.Flush()
}

// WriteTransaction writes one transaction record: the record type, the
// vertex and the item ids. A bufio.Writer keeps its first error, so callers
// check the final Flush.
func WriteTransaction(bw *bufio.Writer, record string, v graph.VertexID, tx itemset.Itemset) {
	b := append(bw.AvailableBuffer(), record...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(v), 10)
	for _, it := range tx {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(it), 10)
	}
	bw.Write(append(b, '\n'))
}

// Read parses a network written by Write. The returned dictionary contains
// only the names present in the file ("I" lines); it may be empty.
func Read(r io.Reader) (*Network, *itemset.Dictionary, error) {
	rs, err := NewRecordScanner(r, "dbnet", formatHeader)
	if err != nil {
		return nil, nil, err
	}
	var nw *Network
	dict := itemset.NewDictionary()
	names := make(map[itemset.Item]string) // the I lines, both ways
	ids := make(map[string]itemset.Item)
	numericItem := func(field string) (itemset.Item, error) {
		id, numeric, err := itemset.ParseID(field)
		if !numeric {
			return 0, fmt.Errorf("invalid item %q", field)
		}
		return id, err
	}
	for rs.Scan() {
		fields := rs.Fields()
		switch fields[0] {
		case "V":
			if nw != nil {
				return nil, nil, rs.Errorf("duplicate V line")
			}
			n, err := rs.Count()
			if err != nil {
				return nil, nil, err
			}
			nw = New(n)
		case "I":
			id, name, err := rs.Name()
			if err != nil {
				return nil, nil, err
			}
			if _, dup := names[id]; dup {
				return nil, nil, rs.Errorf("item %d named twice", id)
			}
			if other, dup := ids[name]; dup {
				return nil, nil, rs.Errorf("item name %q given at items %d and %d", name, other, id)
			}
			names[id], ids[name] = name, id
		case "E":
			if nw == nil {
				return nil, nil, rs.Errorf("E line before V line")
			}
			e, err := rs.Edge()
			if err != nil {
				return nil, nil, err
			}
			if err := nw.AddEdge(e.U, e.V); err != nil {
				return nil, nil, rs.Errorf("%w", err)
			}
		case "T":
			if nw == nil {
				return nil, nil, rs.Errorf("T line before V line")
			}
			if len(fields) < 2 {
				return nil, nil, rs.Errorf("malformed T line")
			}
			v, tx, err := rs.Transaction(numericItem)
			if err != nil {
				return nil, nil, err
			}
			if err := nw.AddTransaction(v, tx); err != nil {
				return nil, nil, rs.Errorf("%w", err)
			}
		default:
			return nil, nil, rs.Errorf("unknown record type %q", fields[0])
		}
	}
	if err := rs.Err(); err != nil {
		return nil, nil, err
	}
	if nw == nil {
		return nil, nil, fmt.Errorf("dbnet: missing V line")
	}
	// Rebuild the dictionary with the file's ids: every I line's name at its
	// id, and a placeholder no I line uses at each id between them.
	maxID := -1
	for id := range names {
		maxID = max(maxID, int(id))
	}
	for id := 0; id <= maxID; id++ {
		name, ok := names[itemset.Item(id)]
		if !ok {
			name = itemset.Placeholder(id, func(name string) bool { _, taken := ids[name]; return taken })
		}
		dict.Intern(name)
	}
	return nw, dict, nil
}

// maxRecordLine caps one line of a record file; a longer line is a read
// error.
const maxRecordLine = 16 * 1024 * 1024

// newLineScanner returns a line scanner over r with the record line cap.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxRecordLine)
	return sc
}

// RecordScanner reads the records of a line-record file: a network (DBNET,
// Read) or a delta (TCDELTA, delta.Read). It skips blank and '#' lines,
// checks the header, splits each record line into fields and numbers its
// errors by line.
type RecordScanner struct {
	sc     *bufio.Scanner
	format string // prefixes every error: "dbnet", "delta"
	line   int
	text   string
	fields []string
	items  []itemset.Item // Transaction's scratch
}

// NewRecordScanner returns a scanner over r past its header: the first record
// line must equal header.
func NewRecordScanner(r io.Reader, format, header string) (*RecordScanner, error) {
	rs := &RecordScanner{sc: newLineScanner(r), format: format}
	if !rs.Scan() {
		if err := rs.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s: empty input", format)
	}
	if rs.text != header {
		return nil, rs.Errorf("unsupported header %q", rs.text)
	}
	return rs, nil
}

// Scan advances to the next record line, reporting false at the end of the
// input or on a read error (see Err).
func (rs *RecordScanner) Scan() bool {
	for rs.sc.Scan() {
		rs.line++
		rs.text = strings.TrimSpace(rs.sc.Text())
		if rs.text == "" || rs.text[0] == '#' {
			continue
		}
		rs.fields = strings.Fields(rs.text)
		return true
	}
	return false
}

// Fields returns the current record's fields, the record type first.
func (rs *RecordScanner) Fields() []string { return rs.fields }

// Errorf returns an error naming the format and the current line.
func (rs *RecordScanner) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d: "+format, append([]any{rs.format, rs.line}, args...)...)
}

// Err returns the read error that ended the scan, if any.
func (rs *RecordScanner) Err() error {
	if err := rs.sc.Err(); err != nil {
		return fmt.Errorf("%s: read: %w", rs.format, err)
	}
	return nil
}

// Count parses the current "<type> <n>" record as a vertex count
// (graph.CheckVertexCount).
func (rs *RecordScanner) Count() (int, error) {
	if len(rs.fields) != 2 {
		return 0, rs.Errorf("malformed %s line", rs.fields[0])
	}
	n, err := strconv.Atoi(rs.fields[1])
	if err != nil {
		return 0, rs.Errorf("invalid vertex count %q", rs.fields[1])
	}
	if err := graph.CheckVertexCount(n); err != nil {
		return 0, rs.Errorf("%w", err)
	}
	return n, nil
}

// Edge parses the current "<type> <u> <v>" record as an edge
// (graph.CheckedEdge).
func (rs *RecordScanner) Edge() (graph.Edge, error) {
	if len(rs.fields) != 3 {
		return graph.Edge{}, rs.Errorf("malformed %s line", rs.fields[0])
	}
	u, err1 := strconv.Atoi(rs.fields[1])
	v, err2 := strconv.Atoi(rs.fields[2])
	if err1 != nil || err2 != nil {
		return graph.Edge{}, rs.Errorf("invalid edge endpoints")
	}
	e, err := graph.CheckedEdge(u, v)
	if err != nil {
		return graph.Edge{}, rs.Errorf("invalid edge endpoints: %w", err)
	}
	return e, nil
}

// Name parses the current "I <item> <name ...>" record: the item and its
// name, the name's fields joined by single spaces.
func (rs *RecordScanner) Name() (itemset.Item, string, error) {
	if len(rs.fields) < 3 {
		return 0, "", rs.Errorf("malformed I line")
	}
	id, numeric, err := itemset.ParseID(rs.fields[1])
	if !numeric {
		err = fmt.Errorf("invalid item %q", rs.fields[1])
	}
	if err != nil {
		return 0, "", rs.Errorf("%w", err)
	}
	return id, strings.Join(rs.fields[2:], " "), nil
}

// Transaction parses the current "<type> <vertex> <item> ..." record, which
// has at least two fields, resolving each item field with item.
func (rs *RecordScanner) Transaction(item func(string) (itemset.Item, error)) (graph.VertexID, itemset.Itemset, error) {
	v, err := graph.ParseVertex(rs.fields[1])
	if err != nil {
		return 0, nil, rs.Errorf("%w", err)
	}
	rs.items = rs.items[:0]
	for _, f := range rs.fields[2:] {
		it, err := item(f)
		if err != nil {
			return 0, nil, rs.Errorf("%w", err)
		}
		rs.items = append(rs.items, it)
	}
	return v, itemset.New(rs.items...), nil // New copies the items
}

// WriteFileAtomic durably replaces the network file (durable.WriteFile) —
// WriteFileAtomicStamped without a stamp, for writing a network no index was
// maintained against yet. An update's write-back keeps the stamp
// (WriteFileAtomicStamped): the network file is the only source for future
// rebuilds, so it must never be torn or roll back behind a durably committed
// index.
func WriteFileAtomic(path string, nw *Network, dict *itemset.Dictionary) error {
	return WriteFileAtomicStamped(path, nw, dict, 0)
}

// journalSeqComment prefixes the journal-seq stamp comment. The stamp rides
// inside the network file as a comment line (the reader skips '#' lines), so
// "network contents" and "journal position those contents include" are
// replaced by the same single rename — there is no window in which one file
// is newer than the other.
const journalSeqComment = "# journal-seq "

// WriteFileAtomicStamped is WriteFileAtomic plus a journal-seq stamp: when
// seq > 0, a "# journal-seq <n>" comment is written before the header (the
// file begins "# journal-seq 7\nDBNET 1\n"), recording that the file
// reflects every journal record up to and including seq. Checkpoint recovery compares this stamp against the index manifest's
// JournalSeq to detect a crash between the two writes.
func WriteFileAtomicStamped(path string, nw *Network, dict *itemset.Dictionary, seq uint64) error {
	err := durable.WriteFile(path, func(w io.Writer) error {
		if seq > 0 {
			if _, err := fmt.Fprintf(w, "%s%d\n", journalSeqComment, seq); err != nil {
				return err
			}
		}
		return Write(w, nw, dict)
	})
	if err != nil {
		return err
	}
	// A failed directory fsync is ignored: unsupported on some platforms,
	// and the rename already made the change visible and consistent.
	_ = durable.SyncDir(filepath.Dir(path))
	return nil
}

// ReadFile reads a network from the named file.
func ReadFile(path string) (*Network, *itemset.Dictionary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Read(f)
}

// ReadJournalSeq returns the journal-seq stamp of the named network file, or
// 0 when the file carries none (it predates journaling, or journaling is not
// in use). Only the lines before the first record line are scanned — the
// stamp, when present, is the file's first line, before the header.
func ReadJournalSeq(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := newLineScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == formatHeader {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			return 0, nil // first record line: no stamp present
		}
		if rest, ok := strings.CutPrefix(line, journalSeqComment); ok {
			seq, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("dbnet: malformed journal-seq stamp %q", line)
			}
			return seq, nil
		}
	}
	return 0, sc.Err()
}
