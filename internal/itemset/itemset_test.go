package itemset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCanonicalizes(t *testing.T) {
	s := New(5, 3, 5, 1, 3)
	want := Itemset{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("New(5,3,5,1,3) = %v, want %v", s, want)
	}
	if New().Len() != 0 {
		t.Fatalf("New() should be empty")
	}
}

func TestParseID(t *testing.T) {
	cases := []struct {
		field   string
		id      Item
		numeric bool
		err     string
	}{
		{"0", 0, true, ""},
		{"2147483647", 2147483647, true, ""},
		{"coffee", 0, false, ""},
		{"4294967301", 0, true, "item id 4294967301 outside [0, 2147483647]"},
		{"-7", 0, true, "item id -7 outside [0, 2147483647]"},
	}
	for _, c := range cases {
		id, numeric, err := ParseID(c.field)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if id != c.id || numeric != c.numeric || got != c.err {
			t.Errorf("ParseID(%q) = (%d, %v, %q), want (%d, %v, %q)", c.field, id, numeric, got, c.id, c.numeric, c.err)
		}
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("FromSorted on unsorted input should panic")
		}
	}()
	FromSorted([]Item{3, 1})
}

func TestFromSortedPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("FromSorted on duplicate input should panic")
		}
	}()
	FromSorted([]Item{1, 1, 2})
}

func TestContains(t *testing.T) {
	s := New(2, 4, 6, 8)
	for _, it := range []Item{2, 4, 6, 8} {
		if !s.Contains(it) {
			t.Errorf("Contains(%d) = false, want true", it)
		}
	}
	for _, it := range []Item{1, 3, 5, 7, 9} {
		if s.Contains(it) {
			t.Errorf("Contains(%d) = true, want false", it)
		}
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want bool
	}{
		{New(), New(1, 2), true},
		{New(1), New(1, 2), true},
		{New(1, 2), New(1, 2), true},
		{New(1, 3), New(1, 2), false},
		{New(1, 2, 3), New(1, 2), false},
		{New(2), New(1, 2, 3), true},
		{New(4), New(1, 2, 3), false},
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestProperSubsetOf(t *testing.T) {
	if New(1, 2).ProperSubsetOf(New(1, 2)) {
		t.Errorf("a set is not a proper subset of itself")
	}
	if !New(1).ProperSubsetOf(New(1, 2)) {
		t.Errorf("{1} should be a proper subset of {1,2}")
	}
}

func TestUnionIntersectMinus(t *testing.T) {
	a := New(1, 3, 5, 7)
	b := New(3, 4, 5, 6)
	if got, want := a.Union(b), New(1, 3, 4, 5, 6, 7); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), New(3, 5); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Minus(b), New(1, 7); !got.Equal(want) {
		t.Errorf("Minus = %v, want %v", got, want)
	}
	if got := a.Intersect(New()); got.Len() != 0 {
		t.Errorf("Intersect with empty = %v, want empty", got)
	}
}

func TestAddRemove(t *testing.T) {
	s := New(1, 5)
	if got, want := s.Add(3), New(1, 3, 5); !got.Equal(want) {
		t.Errorf("Add(3) = %v, want %v", got, want)
	}
	if got, want := s.Add(5), New(1, 5); !got.Equal(want) {
		t.Errorf("Add(existing) = %v, want %v", got, want)
	}
	if got, want := s.Remove(1), New(5); !got.Equal(want) {
		t.Errorf("Remove(1) = %v, want %v", got, want)
	}
	if got, want := s.Remove(9), New(1, 5); !got.Equal(want) {
		t.Errorf("Remove(absent) = %v, want %v", got, want)
	}
	// The receiver must not be mutated.
	if !s.Equal(New(1, 5)) {
		t.Errorf("receiver mutated: %v", s)
	}
}

func TestPrefixAndIsPrefixOf(t *testing.T) {
	s := New(1, 2, 3, 4)
	if got, want := s.Prefix(2), New(1, 2); !got.Equal(want) {
		t.Errorf("Prefix(2) = %v, want %v", got, want)
	}
	if !New(1, 2).IsPrefixOf(s) {
		t.Errorf("{1,2} should be a prefix of {1,2,3,4}")
	}
	if New(2, 3).IsPrefixOf(s) {
		t.Errorf("{2,3} is not a prefix of {1,2,3,4}")
	}
	if !New().IsPrefixOf(s) {
		t.Errorf("empty set is a prefix of everything")
	}
}

func TestImmediateSubsets(t *testing.T) {
	s := New(1, 2, 3)
	subs := s.ImmediateSubsets()
	if len(subs) != 3 {
		t.Fatalf("got %d immediate subsets, want 3", len(subs))
	}
	want := []Itemset{New(2, 3), New(1, 3), New(1, 2)}
	for i := range want {
		if !subs[i].Equal(want[i]) {
			t.Errorf("subset %d = %v, want %v", i, subs[i], want[i])
		}
	}
	if got := New().ImmediateSubsets(); got != nil {
		t.Errorf("immediate subsets of empty set = %v, want nil", got)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	sets := []Itemset{New(), New(0), New(1, 2, 3), New(1000000, 2000000)}
	for _, s := range sets {
		got := s.Key().Itemset()
		if !got.Equal(s) {
			t.Errorf("Key round trip of %v = %v", s, got)
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := make(map[Key]Itemset)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(6)
		items := make([]Item, n)
		for j := range items {
			items[j] = Item(rng.Intn(50))
		}
		s := New(items...)
		k := s.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(s) {
			t.Fatalf("key collision between %v and %v", prev, s)
		}
		seen[k] = s
	}
}

func TestString(t *testing.T) {
	if got, want := New(3, 1).String(), "{1, 3}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := New().String(), "{}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestCompareAndSort(t *testing.T) {
	sets := []Itemset{New(2), New(1, 2), New(1), New(1, 2, 3), New()}
	Sort(sets)
	want := []Itemset{New(), New(1), New(1, 2), New(1, 2, 3), New(2)}
	for i := range want {
		if !sets[i].Equal(want[i]) {
			t.Fatalf("sorted[%d] = %v, want %v (full: %v)", i, sets[i], want[i], sets)
		}
	}
	if Compare(New(1, 2), New(1, 2)) != 0 {
		t.Errorf("Compare of equal sets should be 0")
	}
}

func TestLastPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Last of empty set should panic")
		}
	}()
	New().Last()
}

// randomItemset is a helper for property tests.
func randomItemset(rng *rand.Rand, maxItem, maxLen int) Itemset {
	n := rng.Intn(maxLen + 1)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(rng.Intn(maxItem))
	}
	return New(items...)
}

func TestQuickSetAlgebraLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Values: func(vals []reflect.Value, rng *rand.Rand) {
		vals[0] = reflect.ValueOf(randomItemset(rng, 30, 10))
		vals[1] = reflect.ValueOf(randomItemset(rng, 30, 10))
		vals[2] = reflect.ValueOf(randomItemset(rng, 30, 10))
	}}

	// Union is commutative and intersect distributes over union.
	law := func(a, b, c Itemset) bool {
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		left := a.Intersect(b.Union(c))
		right := a.Intersect(b).Union(a.Intersect(c))
		if !left.Equal(right) {
			return false
		}
		// a \ b is disjoint from b and a = (a\b) ∪ (a∩b).
		if a.Minus(b).Intersect(b).Len() != 0 {
			return false
		}
		if !a.Minus(b).Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// Subset relations.
		if !a.Intersect(b).SubsetOf(a) || !a.SubsetOf(a.Union(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalForm(t *testing.T) {
	f := func(raw []int32) bool {
		items := make([]Item, len(raw))
		for i, v := range raw {
			items[i] = Item(v & 0xffff)
		}
		s := New(items...)
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return false
			}
		}
		// Every input item is present and nothing else is.
		for _, it := range items {
			if !s.Contains(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("data mining")
	b := d.Intern("sequential pattern")
	if a == b {
		t.Fatalf("distinct names got the same id")
	}
	if got := d.Intern("data mining"); got != a {
		t.Fatalf("re-interning returned %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if name := d.MustName(a); name != "data mining" {
		t.Fatalf("MustName = %q", name)
	}
	if _, err := d.Name(99); err == nil {
		t.Fatalf("Name of unknown id should error")
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Fatalf("Lookup of absent name should report false")
	}
	set := d.InternAll([]string{"x", "y", "x"})
	if set.Len() != 2 {
		t.Fatalf("InternAll dedup failed: %v", set)
	}
	if got := d.Universe().Len(); got != d.Len() {
		t.Fatalf("Universe size = %d, want %d", got, d.Len())
	}
	names := d.Names(New(a, b))
	if len(names) != 2 || names[0] != "data mining" {
		t.Fatalf("Names = %v", names)
	}
	sorted := d.SortedNames()
	if !sort.StringsAreSorted(sorted) {
		t.Fatalf("SortedNames not sorted: %v", sorted)
	}
}

func TestDictionaryMustNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustName of unknown id should panic")
		}
	}()
	NewDictionary().MustName(5)
}
