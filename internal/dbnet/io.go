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
// Lines starting with '#' and blank lines are ignored. The format is designed
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
			sb := make([]string, 0, len(t)+2)
			sb = append(sb, "T", strconv.Itoa(v))
			for _, it := range t {
				sb = append(sb, strconv.Itoa(int(it)))
			}
			fmt.Fprintln(bw, strings.Join(sb, " "))
		}
	}
	return bw.Flush()
}

// Read parses a network written by Write. The returned dictionary contains
// only the names present in the file ("I" lines); it may be empty.
func Read(r io.Reader) (*Network, *itemset.Dictionary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	readLine := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, true
		}
		return "", false
	}

	header, ok := readLine()
	if !ok {
		return nil, nil, fmt.Errorf("dbnet: empty input")
	}
	if header != formatHeader {
		return nil, nil, fmt.Errorf("dbnet: line %d: unsupported header %q", lineNo, header)
	}

	var nw *Network
	dict := itemset.NewDictionary()
	names := make(map[itemset.Item]string)

	for {
		line, ok := readLine()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "V":
			if nw != nil {
				return nil, nil, fmt.Errorf("dbnet: line %d: duplicate V line", lineNo)
			}
			if len(fields) != 2 {
				return nil, nil, fmt.Errorf("dbnet: line %d: malformed V line", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, nil, fmt.Errorf("dbnet: line %d: invalid vertex count %q", lineNo, fields[1])
			}
			nw = New(n)
		case "I":
			if len(fields) < 3 {
				return nil, nil, fmt.Errorf("dbnet: line %d: malformed I line", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, nil, fmt.Errorf("dbnet: line %d: invalid item id %q", lineNo, fields[1])
			}
			names[itemset.Item(id)] = strings.Join(fields[2:], " ")
		case "E":
			if nw == nil {
				return nil, nil, fmt.Errorf("dbnet: line %d: E line before V line", lineNo)
			}
			if len(fields) != 3 {
				return nil, nil, fmt.Errorf("dbnet: line %d: malformed E line", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, nil, fmt.Errorf("dbnet: line %d: invalid edge endpoints", lineNo)
			}
			if err := nw.AddEdge(graph.VertexID(u), graph.VertexID(v)); err != nil {
				return nil, nil, fmt.Errorf("dbnet: line %d: %w", lineNo, err)
			}
		case "T":
			if nw == nil {
				return nil, nil, fmt.Errorf("dbnet: line %d: T line before V line", lineNo)
			}
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("dbnet: line %d: malformed T line", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, nil, fmt.Errorf("dbnet: line %d: invalid vertex %q", lineNo, fields[1])
			}
			items := make([]itemset.Item, 0, len(fields)-2)
			for _, f := range fields[2:] {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, nil, fmt.Errorf("dbnet: line %d: invalid item %q", lineNo, f)
				}
				items = append(items, itemset.Item(id))
			}
			if err := nw.AddTransaction(graph.VertexID(v), itemset.New(items...)); err != nil {
				return nil, nil, fmt.Errorf("dbnet: line %d: %w", lineNo, err)
			}
		default:
			return nil, nil, fmt.Errorf("dbnet: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("dbnet: read: %w", err)
	}
	if nw == nil {
		return nil, nil, fmt.Errorf("dbnet: missing V line")
	}
	// Rebuild the dictionary with stable identifiers matching the file.
	if len(names) > 0 {
		maxID := itemset.Item(0)
		for id := range names {
			if id > maxID {
				maxID = id
			}
		}
		for id := itemset.Item(0); id <= maxID; id++ {
			name, ok := names[id]
			if !ok {
				name = fmt.Sprintf("item-%d", id)
			}
			dict.Intern(name)
		}
	}
	return nw, dict, nil
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
// seq > 0, a "# journal-seq <n>" comment is written after the header,
// recording that the file reflects every journal record up to and including
// seq. Checkpoint recovery compares this stamp against the index manifest's
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
// stamp, when present, sits right after the header.
func ReadJournalSeq(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
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
