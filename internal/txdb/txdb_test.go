package txdb

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"themecomm/internal/itemset"
)

func approxEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestEmptyDatabase(t *testing.T) {
	d := New()
	if !d.Empty() || d.Len() != 0 {
		t.Fatalf("new database should be empty")
	}
	if got := d.Frequency(itemset.New(1)); got != 0 {
		t.Fatalf("frequency in empty database = %v, want 0", got)
	}
	if got := d.Support(itemset.New()); got != 0 {
		t.Fatalf("support of empty pattern in empty database = %d, want 0", got)
	}
	if d.TotalItems() != 0 {
		t.Fatalf("TotalItems of empty database should be 0")
	}
}

func TestFrequencyBasics(t *testing.T) {
	d := FromTransactions(
		[]itemset.Item{1, 2, 3},
		[]itemset.Item{1, 2},
		[]itemset.Item{2, 3},
		[]itemset.Item{1, 2, 3},
		[]itemset.Item{4},
	)
	cases := []struct {
		p    itemset.Itemset
		want float64
	}{
		{itemset.New(), 1.0},
		{itemset.New(1), 3.0 / 5},
		{itemset.New(2), 4.0 / 5},
		{itemset.New(1, 2), 3.0 / 5},
		{itemset.New(1, 2, 3), 2.0 / 5},
		{itemset.New(4), 1.0 / 5},
		{itemset.New(5), 0},
		{itemset.New(1, 4), 0},
	}
	for _, c := range cases {
		if got := d.Frequency(c.p); !approxEqual(got, c.want) {
			t.Errorf("Frequency(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMultisetSemantics(t *testing.T) {
	// The same transaction added twice must count twice.
	d := FromTransactions([]itemset.Item{1, 2}, []itemset.Item{1, 2})
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if got := d.Support(itemset.New(1, 2)); got != 2 {
		t.Fatalf("Support = %d, want 2", got)
	}
}

func TestTransactionCanonicalization(t *testing.T) {
	d := FromTransactions([]itemset.Item{3, 1, 3, 2})
	tx := d.Transactions()[0]
	if !tx.Equal(itemset.New(1, 2, 3)) {
		t.Fatalf("transaction not canonicalized: %v", tx)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	d := New()
	d.Add(Transaction{3, 1}) // deliberately bypass canonicalization
	if err := d.Validate(); err == nil {
		t.Fatalf("Validate should reject a non-canonical transaction")
	}
}

func TestItemsAndTotalItems(t *testing.T) {
	d := FromTransactions([]itemset.Item{1, 2}, []itemset.Item{2, 3, 4})
	if got, want := d.Items(), itemset.New(1, 2, 3, 4); !got.Equal(want) {
		t.Fatalf("Items = %v, want %v", got, want)
	}
	if got := d.TotalItems(); got != 5 {
		t.Fatalf("TotalItems = %d, want 5", got)
	}
}

func TestItemFrequenciesMatchFrequency(t *testing.T) {
	d := FromTransactions(
		[]itemset.Item{1, 2},
		[]itemset.Item{2},
		[]itemset.Item{3},
	)
	freqs := d.ItemFrequencies()
	for it, f := range freqs {
		if got := d.Frequency(itemset.New(it)); !approxEqual(got, f) {
			t.Errorf("item %d: ItemFrequencies=%v Frequency=%v", it, f, got)
		}
	}
	if len(freqs) != 3 {
		t.Errorf("expected 3 distinct items, got %d", len(freqs))
	}
	if !d.ContainsItem(2) || d.ContainsItem(9) {
		t.Errorf("ContainsItem results wrong")
	}
}

func TestAddInvalidatesCache(t *testing.T) {
	d := FromTransactions([]itemset.Item{1})
	if got := d.Frequency(itemset.New(1)); !approxEqual(got, 1) {
		t.Fatalf("initial frequency = %v", got)
	}
	d.Add(itemset.New(2))
	if got := d.Frequency(itemset.New(1)); !approxEqual(got, 0.5) {
		t.Fatalf("frequency after Add = %v, want 0.5", got)
	}
	if got := d.Frequency(itemset.New(2)); !approxEqual(got, 0.5) {
		t.Fatalf("frequency of new item = %v, want 0.5", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := FromTransactions([]itemset.Item{1, 2})
	cp := d.Clone()
	cp.Add(itemset.New(3))
	if d.Len() != 1 || cp.Len() != 2 {
		t.Fatalf("clone not independent: orig %d, copy %d", d.Len(), cp.Len())
	}
}

func TestString(t *testing.T) {
	d := FromTransactions([]itemset.Item{1})
	if got := d.String(); got != "txdb.Database{1 transactions}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: frequency is anti-monotone in the pattern — f(p1) >= f(p2)
// whenever p1 ⊆ p2. This is the foundation of Theorem 5.1 in the paper.
func TestQuickFrequencyAntiMonotone(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, rng *rand.Rand) {
		vals[0] = reflect.ValueOf(randomDatabase(rng))
		p2 := randomPattern(rng, 8, 4)
		// p1 is a random subset of p2.
		var p1 itemset.Itemset
		for _, it := range p2 {
			if rng.Intn(2) == 0 {
				p1 = p1.Add(it)
			}
		}
		vals[1] = reflect.ValueOf(p1)
		vals[2] = reflect.ValueOf(p2)
	}}
	f := func(d *Database, p1, p2 itemset.Itemset) bool {
		return d.Frequency(p1) >= d.Frequency(p2)-1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: 0 <= f(p) <= 1 and support = round(f * len).
func TestQuickFrequencyBounds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, rng *rand.Rand) {
		vals[0] = reflect.ValueOf(randomDatabase(rng))
		vals[1] = reflect.ValueOf(randomPattern(rng, 8, 3))
	}}
	f := func(d *Database, p itemset.Itemset) bool {
		fr := d.Frequency(p)
		if fr < 0 || fr > 1 {
			return false
		}
		if d.Len() == 0 {
			return fr == 0
		}
		return approxEqual(fr*float64(d.Len()), float64(d.Support(p)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randomDatabase(rng *rand.Rand) *Database {
	d := New()
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		d.Add(randomPattern(rng, 8, 5))
	}
	return d
}

func randomPattern(rng *rand.Rand, maxItem, maxLen int) itemset.Itemset {
	n := rng.Intn(maxLen + 1)
	items := make([]itemset.Item, n)
	for i := range items {
		items[i] = itemset.Item(rng.Intn(maxItem))
	}
	return itemset.New(items...)
}

// scanSupport is the definition of support: one SubsetOf test per transaction.
func scanSupport(d *Database, p itemset.Itemset) (int, []int32) {
	n := 0
	var tids []int32
	for tid, t := range d.Transactions() {
		if p.SubsetOf(t) {
			n++
			tids = append(tids, int32(tid))
		}
	}
	return n, tids
}

// TestVerticalSupportMatchesScan checks the vertical layout against the scan
// on random databases with duplicate transactions, negative items and long
// patterns, before and after removals and additions rebuild the layout.
func TestVerticalSupportMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(d *Database, what string) {
		t.Helper()
		for q := 0; q < 40; q++ {
			p := randomPattern(rng, 8, 1+rng.Intn(10))
			if q%5 == 0 {
				p = p.Add(-3)
			}
			want, wantTids := scanSupport(d, p)
			if got := d.Support(p); got != want {
				t.Fatalf("%s: Support(%v) = %d, the scan finds %d", what, p, got, want)
			}
			got := d.TransactionsWith([]int32{-1}, p)
			if got[0] != -1 || !reflect.DeepEqual(append([]int32(nil), got[1:]...), wantTids) {
				t.Fatalf("%s: TransactionsWith(%v) = %v, the scan finds %v", what, p, got[1:], wantTids)
			}
		}
		seen := 0
		d.ItemCounts(func(it itemset.Item, count int) {
			seen++
			if want, _ := scanSupport(d, itemset.New(it)); count != want || count == 0 {
				t.Fatalf("%s: ItemCounts reports %d for item %d, the scan finds %d", what, count, it, want)
			}
		})
		if items := d.Items(); items.Len() != seen || !slices.IsSorted(items) {
			t.Fatalf("%s: Items() = %v after ItemCounts visited %d items", what, items, seen)
		}
	}
	for trial := 0; trial < 50; trial++ {
		d := New()
		for i, n := 0, rng.Intn(30); i < n; i++ {
			tx := randomPattern(rng, 8, 6)
			if rng.Intn(4) == 0 {
				tx = tx.Add(-3)
			}
			d.Add(tx)
			if rng.Intn(3) == 0 {
				d.Add(tx.Clone()) // a duplicate transaction stays its own entry
			}
		}
		check(d, "fresh")
		for i := 0; i < 5 && d.Len() > 0; i++ {
			victim := d.Transactions()[rng.Intn(d.Len())].Clone()
			if !d.Remove(victim) {
				t.Fatalf("Remove(%v) found nothing", victim)
			}
			check(d, "after Remove")
		}
		d.Add(randomPattern(rng, 8, 6))
		check(d, "after Add")
	}
}
