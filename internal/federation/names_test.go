package federation

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
)

// quotedList renders names the way the name tables must: a JSON array of
// json.Marshal-quoted strings.
func quotedList(t *testing.T, names ...string) string {
	t.Helper()
	b, err := json.Marshal(names)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestQuotedNamesRender pins what the tables write: dictionary and display
// names quoted as encoding/json quotes them, and identifiers nothing names as
// decimal strings.
func TestQuotedNamesRender(t *testing.T) {
	dict := itemset.NewDictionary()
	dict.InternAll([]string{"<data> & mining", "line sep"})
	qn := NewQuotedNames(dict, []string{"Ada \"Lovelace\"", "\xff"})

	if got, want := string(qn.AppendItems(nil, itemset.New(0, 1, 7))), quotedList(t, "<data> & mining", "line sep", "7"); got != want {
		t.Fatalf("AppendItems = %s, want %s", got, want)
	}
	if got, want := string(qn.AppendVertices(nil, []graph.VertexID{0, 1, 2})), quotedList(t, "Ada \"Lovelace\"", "\xff", "2"); got != want {
		t.Fatalf("AppendVertices = %s, want %s", got, want)
	}
	if got := string(qn.AppendVertices(nil, nil)); got != "[]" {
		t.Fatalf("AppendVertices(nil) = %s, want []", got)
	}
	bare := NewQuotedNames(nil, nil)
	if got, want := string(bare.AppendItems(nil, itemset.New(3))), `["3"]`; got != want {
		t.Fatalf("AppendItems without a dictionary = %s, want %s", got, want)
	}
	if got, want := string(bare.AppendVertex(nil, 12)), `"12"`; got != want {
		t.Fatalf("AppendVertex without names = %s, want %s", got, want)
	}
}

// TestQuotedNamesGrowWithDictionary renders while another goroutine interns
// new items, as an update does: an item renders as its identifier until the
// dictionary names it and by its name from then on, and readers never see a
// torn table (run under -race).
func TestQuotedNamesGrowWithDictionary(t *testing.T) {
	dict := itemset.NewDictionary()
	dict.Intern("seed")
	qn := NewQuotedNames(dict, nil)
	if got := string(qn.AppendItems(nil, itemset.New(0, 1))); got != `["seed","1"]` {
		t.Fatalf("before growth: %s", got)
	}
	const added = 200
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 2000; i++ {
				it := itemset.Item(1 + i%added)
				buf = qn.AppendItems(buf[:0], itemset.New(it))
				named, numeric := quotedList(t, fmt.Sprintf("item <%d>", it)), fmt.Sprintf(`["%d"]`, it)
				if got := string(buf); got != named && got != numeric {
					t.Errorf("item %d rendered %s", it, got)
					return
				}
			}
		}()
	}
	for i := 1; i <= added; i++ {
		dict.Intern(fmt.Sprintf("item <%d>", i))
	}
	wg.Wait()
	for i := 1; i <= added; i++ {
		want := quotedList(t, fmt.Sprintf("item <%d>", i))
		if got := string(qn.AppendItems(nil, itemset.New(itemset.Item(i)))); got != want {
			t.Fatalf("after growth, item %d renders %s, want %s", i, got, want)
		}
	}
}

// TestDetachDropsNameTables holds the tables to the network's lifetime: a
// network attached again under a detached one's name renders through fresh
// tables built from its own names, never the detached network's.
func TestDetachDropsNameTables(t *testing.T) {
	f := New(Options{})
	idx := buildTestIndex(t, 3)
	attach := func(name string) *QuotedNames {
		dict := itemset.NewDictionary()
		dict.Intern(name)
		if err := f.AttachBuilt("n", idx, NetworkOptions{Dictionary: dict}); err != nil {
			t.Fatalf("AttachBuilt: %v", err)
		}
		n, _ := f.Network("n")
		return n.QuotedNames()
	}
	first := attach("before")
	if got := string(first.AppendItems(nil, itemset.New(0))); got != `["before"]` {
		t.Fatalf("first attach renders %s", got)
	}
	if err := f.Detach("n"); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	second := attach("after")
	if second == first {
		t.Fatal("the re-attached network shares the detached network's name tables")
	}
	if got := string(second.AppendItems(nil, itemset.New(0))); got != `["after"]` {
		t.Fatalf("re-attached network renders %s, want [\"after\"]", got)
	}
}
