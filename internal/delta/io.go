package delta

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// The on-disk delta format shares the grammar of the dbnet text format and
// is read by the same dbnet.RecordScanner:
//
//	TCDELTA 1
//	AV <n>                            (optional: add n vertices)
//	I <item> <name ...>               (one per item the delta names, ascending)
//	V- <v>                            (one per tombstoned vertex)
//	E+ <u> <v>                        (one per added edge)
//	E- <u> <v>                        (one per removed edge)
//	T <vertex> <item> <item> ...      (one per added transaction)
//	T- <vertex> <item> <item> ...     (one per removed transaction)
//
// Lines starting with '#' and blank lines are ignored. Vertex and item ids
// lie in [0, 2147483647] and an edge joins two distinct vertices, as in a
// network file. I lines are the delta's Names, the network file's I lines
// for the items the delta introduces. Transaction items are numeric
// identifiers, or names when the reader is given a dictionary (unknown names
// are interned, so a delta file may introduce new items by name).

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
	for _, n := range d.Names {
		fmt.Fprintf(bw, "I %d %s\n", n.Item, n.Name)
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
	for _, vt := range d.AddTransactions {
		dbnet.WriteTransaction(bw, "T", vt.Vertex, vt.Tx)
	}
	for _, vt := range d.RemoveTransactions {
		dbnet.WriteTransaction(bw, "T-", vt.Vertex, vt.Tx)
	}
	return bw.Flush()
}

// Read parses a delta written by Write. dict, when non-nil, resolves
// non-numeric item fields by name, interning names it has not seen — a delta
// may therefore introduce new items by name.
func Read(r io.Reader, dict *itemset.Dictionary) (*Delta, error) {
	rs, err := dbnet.NewRecordScanner(r, "delta", deltaHeader)
	if err != nil {
		return nil, err
	}
	d := &Delta{}
	resolve := func(field string) (itemset.Item, error) { return resolveItem(field, dict) }
	for rs.Scan() {
		fields := rs.Fields()
		switch fields[0] {
		case "AV":
			n, err := rs.Count()
			if err != nil {
				return nil, err
			}
			d.AddVertices += n
		case "I":
			id, name, err := rs.Name()
			if err != nil {
				return nil, err
			}
			if k := len(d.Names); k > 0 && id <= d.Names[k-1].Item {
				return nil, rs.Errorf("item %d named out of ascending order", id)
			}
			d.Names = append(d.Names, ItemName{Item: id, Name: name})
		case "E+", "E-":
			e, err := rs.Edge()
			if err != nil {
				return nil, err
			}
			if fields[0] == "E+" {
				d.AddEdges = append(d.AddEdges, e)
			} else {
				d.RemoveEdges = append(d.RemoveEdges, e)
			}
		case "V-":
			if len(fields) != 2 {
				return nil, rs.Errorf("malformed V- line")
			}
			v, err := graph.ParseVertex(fields[1])
			if err != nil {
				return nil, rs.Errorf("%w", err)
			}
			d.RemoveVertices = append(d.RemoveVertices, v)
		case "T", "T-":
			if len(fields) < 3 {
				return nil, rs.Errorf("malformed %s line", fields[0])
			}
			v, tx, err := rs.Transaction(resolve)
			if err != nil {
				return nil, err
			}
			vt := VertexTransaction{Vertex: v, Tx: tx}
			if fields[0] == "T" {
				d.AddTransactions = append(d.AddTransactions, vt)
			} else {
				d.RemoveTransactions = append(d.RemoveTransactions, vt)
			}
		default:
			return nil, rs.Errorf("unknown record type %q", fields[0])
		}
	}
	if err := rs.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// resolveItem parses one item field: a numeric identifier is taken as-is
// (see itemset.ParseID); anything else is resolved through the dictionary,
// interning unseen names so delta files can introduce new items.
func resolveItem(field string, dict *itemset.Dictionary) (itemset.Item, error) {
	if id, numeric, err := itemset.ParseID(field); numeric {
		return id, err
	}
	if dict == nil {
		return 0, fmt.Errorf("item %q is not numeric and no dictionary is available", field)
	}
	return dict.Intern(field), nil
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
