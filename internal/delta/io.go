package delta

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// The on-disk delta format mirrors the dbnet text format:
//
//	TCDELTA 1
//	AV <n>                            (optional: add n vertices)
//	V- <v>                            (one per tombstoned vertex)
//	E+ <u> <v>                        (one per added edge)
//	E- <u> <v>                        (one per removed edge)
//	T <vertex> <item> <item> ...      (one per added transaction)
//	T- <vertex> <item> <item> ...     (one per removed transaction)
//
// Lines starting with '#' and blank lines are ignored. Items are numeric
// identifiers, or names when the reader is given a dictionary (unknown names
// are interned, so a delta may introduce new items by name).

const deltaHeader = "TCDELTA 1"

// Write serializes the delta to w.
func Write(w io.Writer, d *Delta) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, deltaHeader); err != nil {
		return err
	}
	if d.AddVertices > 0 {
		fmt.Fprintf(bw, "AV %d\n", d.AddVertices)
	}
	for _, v := range d.RemoveVertices {
		fmt.Fprintf(bw, "V- %d\n", v)
	}
	for _, e := range d.AddEdges {
		fmt.Fprintf(bw, "E+ %d %d\n", e.U, e.V)
	}
	for _, e := range d.RemoveEdges {
		fmt.Fprintf(bw, "E- %d %d\n", e.U, e.V)
	}
	writeTx := func(record string, vt VertexTransaction) error {
		sb := make([]string, 0, vt.Tx.Len()+2)
		sb = append(sb, record, strconv.Itoa(int(vt.Vertex)))
		for _, it := range vt.Tx {
			sb = append(sb, strconv.Itoa(int(it)))
		}
		_, err := fmt.Fprintln(bw, strings.Join(sb, " "))
		return err
	}
	for _, vt := range d.AddTransactions {
		if err := writeTx("T", vt); err != nil {
			return err
		}
	}
	for _, vt := range d.RemoveTransactions {
		if err := writeTx("T-", vt); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a delta written by Write. dict, when non-nil, resolves
// non-numeric item fields by name, interning names it has not seen — a delta
// may therefore introduce new items by name.
func Read(r io.Reader, dict *itemset.Dictionary) (*Delta, error) {
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
		return nil, fmt.Errorf("delta: empty input")
	}
	if header != deltaHeader {
		return nil, fmt.Errorf("delta: line %d: unsupported header %q", lineNo, header)
	}

	d := &Delta{}
	parseEdge := func(fields []string) (graph.Edge, error) {
		if len(fields) != 3 {
			return graph.Edge{}, fmt.Errorf("delta: line %d: malformed %s line", lineNo, fields[0])
		}
		u, err1 := strconv.Atoi(fields[1])
		v, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || u == v ||
			u < 0 || u > math.MaxInt32 || v < 0 || v > math.MaxInt32 {
			return graph.Edge{}, fmt.Errorf("delta: line %d: invalid edge endpoints", lineNo)
		}
		return graph.EdgeOf(graph.VertexID(u), graph.VertexID(v)), nil
	}
	for {
		line, ok := readLine()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "AV":
			if len(fields) != 2 {
				return nil, fmt.Errorf("delta: line %d: malformed AV line", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("delta: line %d: invalid vertex count %q", lineNo, fields[1])
			}
			d.AddVertices += n
		case "E+":
			e, err := parseEdge(fields)
			if err != nil {
				return nil, err
			}
			d.AddEdges = append(d.AddEdges, e)
		case "E-":
			e, err := parseEdge(fields)
			if err != nil {
				return nil, err
			}
			d.RemoveEdges = append(d.RemoveEdges, e)
		case "V-":
			if len(fields) != 2 {
				return nil, fmt.Errorf("delta: line %d: malformed V- line", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 || v > math.MaxInt32 {
				return nil, fmt.Errorf("delta: line %d: invalid vertex %q", lineNo, fields[1])
			}
			d.RemoveVertices = append(d.RemoveVertices, graph.VertexID(v))
		case "T", "T-":
			if len(fields) < 3 {
				return nil, fmt.Errorf("delta: line %d: malformed %s line", lineNo, fields[0])
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 || v > math.MaxInt32 {
				return nil, fmt.Errorf("delta: line %d: invalid vertex %q", lineNo, fields[1])
			}
			items := make([]itemset.Item, 0, len(fields)-2)
			for _, f := range fields[2:] {
				it, err := ResolveItem(f, dict)
				if err != nil {
					return nil, fmt.Errorf("delta: line %d: %w", lineNo, err)
				}
				items = append(items, it)
			}
			vt := VertexTransaction{Vertex: graph.VertexID(v), Tx: itemset.New(items...)}
			if fields[0] == "T" {
				d.AddTransactions = append(d.AddTransactions, vt)
			} else {
				d.RemoveTransactions = append(d.RemoveTransactions, vt)
			}
		default:
			return nil, fmt.Errorf("delta: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("delta: read: %w", err)
	}
	return d, nil
}

// ResolveItem parses one item field: a numeric identifier is taken as-is
// (see ItemID); anything else is resolved through the dictionary, interning
// unseen names so deltas can introduce new items.
func ResolveItem(field string, dict *itemset.Dictionary) (itemset.Item, error) {
	if id, numeric, err := ItemID(field); numeric {
		return id, err
	}
	if dict == nil {
		return 0, fmt.Errorf("item %q is not numeric and no dictionary is available", field)
	}
	return dict.Intern(field), nil
}

// ItemID parses a numeric item identifier; numeric is false when field is an
// item name. Identifiers are 32-bit: anything outside [0, MaxInt32] is
// rejected rather than silently wrapped onto another item.
func ItemID(field string) (id itemset.Item, numeric bool, err error) {
	n, err := strconv.Atoi(field)
	if err != nil {
		return 0, false, nil
	}
	if n < 0 || n > math.MaxInt32 {
		return 0, true, fmt.Errorf("item id %d outside [0, %d]", n, math.MaxInt32)
	}
	return itemset.Item(n), true, nil
}

// ReadFile reads a delta from the named file.
func ReadFile(path string, dict *itemset.Dictionary) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, dict)
}
