package dbnet

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// FuzzDBNetRead throws arbitrary bytes at the network reader: malformed,
// truncated or hostile input — ids outside [0, 2147483647] among it — must
// return an error, never panic; in a network the reader accepts, every I
// line's name sits at its id, and the network writes back through Write and
// re-reads to the same network and dictionary. The seed corpus is
// testdata/fuzz/FuzzDBNetRead.
func FuzzDBNetRead(f *testing.F) {
	dict := itemset.NewDictionary()
	for _, name := range []string{"a", "b c", "d"} {
		dict.Intern(name)
	}
	var paper bytes.Buffer
	if err := Write(&paper, PaperExample(), dict); err != nil {
		f.Fatal(err)
	}
	f.Add(paper.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// The reader allocates the vertex count and pads the dictionary to
		// the largest item id a file declares; inputs declaring more than a
		// small network would only measure the machine's memory.
		if declaresLarge(data) {
			return
		}
		nw, dict, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || f[0] != "I" {
				continue
			}
			id, _ := strconv.Atoi(f[1])
			if name, err := dict.Name(itemset.Item(id)); err != nil || name != strings.Join(f[2:], " ") {
				t.Fatalf("line %q: item %d is %q (%v) after Read", line, id, name, err)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, nw, dict); err != nil {
			t.Fatalf("Write of an accepted network failed: %v", err)
		}
		again, againDict, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of a written network failed: %v\nwritten:\n%s", err, buf.Bytes())
		}
		if again.NumVertices() != nw.NumVertices() || !reflect.DeepEqual(again.Graph().Edges(), nw.Graph().Edges()) {
			t.Fatalf("round trip changed the graph: %v, want %v", again, nw)
		}
		for v := 0; v < nw.NumVertices(); v++ {
			got, want := again.Database(graph.VertexID(v)).Transactions(), nw.Database(graph.VertexID(v)).Transactions()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip changed vertex %d's transactions: %v, want %v", v, got, want)
			}
		}
		if !reflect.DeepEqual(dictNames(againDict), dictNames(dict)) {
			t.Fatalf("round trip changed the dictionary: %q, want %q", dictNames(againDict), dictNames(dict))
		}
	})
}

// declaresLarge reports whether data has a V or I line whose number passes
// 1<<16 but not graph.MaxVertices; the reader refuses larger ones before it
// allocates.
func declaresLarge(data []byte) bool {
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && (f[0] == "V" || f[0] == "I") {
			if n, err := strconv.Atoi(f[1]); err == nil && n > 1<<16 && n <= graph.MaxVertices {
				return true
			}
		}
	}
	return false
}

// dictNames returns the dictionary's names by id.
func dictNames(d *itemset.Dictionary) []string {
	names := make([]string, d.Len())
	for id := range names {
		names[id] = d.MustName(itemset.Item(id))
	}
	return names
}
