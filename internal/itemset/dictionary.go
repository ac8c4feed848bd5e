package itemset

import (
	"fmt"
	"sort"
	"sync"
)

// Dictionary maps human-readable item names (keywords, locations, product
// names, ...) to compact Item identifiers and back. The zero value is not
// usable; construct one with NewDictionary. A Dictionary is safe for
// concurrent use: serving layers resolve names while incremental updates
// intern items the network has never seen.
type Dictionary struct {
	mu     sync.RWMutex
	byName map[string]Item
	byID   []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byName: make(map[string]Item)}
}

// Intern returns the Item assigned to name, assigning a fresh identifier if
// the name has not been seen before. Identifiers are assigned densely starting
// at 0 in interning order.
func (d *Dictionary) Intern(name string) Item {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byName[name]; ok {
		return id
	}
	id := Item(len(d.byID))
	d.byName[name] = id
	d.byID = append(d.byID, name)
	return id
}

// PadTo interns placeholder names (Placeholder) until the dictionary covers
// every identifier in [0, n). Attaching an updatable network pads its
// dictionary to the network's item universe, so a fresh name can never be
// assigned the identifier of an existing unnamed item. Already-covered
// dictionaries are untouched.
func (d *Dictionary) PadTo(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.byID) < n {
		name := Placeholder(len(d.byID), func(name string) bool { _, taken := d.byName[name]; return taken })
		d.byName[name] = Item(len(d.byID))
		d.byID = append(d.byID, name)
	}
}

// Placeholder returns the name of unnamed item id: "item-<id>", primed
// until taken reports the name free.
func Placeholder(id int, taken func(name string) bool) string {
	name := fmt.Sprintf("item-%d", id)
	for taken(name) {
		name += "'"
	}
	return name
}

// InternAll interns every name and returns the resulting itemset.
func (d *Dictionary) InternAll(names []string) Itemset {
	items := make([]Item, 0, len(names))
	for _, n := range names {
		items = append(items, d.Intern(n))
	}
	return New(items...)
}

// Lookup returns the Item for name and whether it is present, without
// interning it.
func (d *Dictionary) Lookup(name string) (Item, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byName[name]
	return id, ok
}

// Name returns the name of item id. It returns an error if the identifier was
// never interned.
func (d *Dictionary) Name(id Item) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(d.byID) {
		return "", fmt.Errorf("itemset: unknown item id %d", id)
	}
	return d.byID[id], nil
}

// MustName is like Name but panics on unknown identifiers. It is intended for
// rendering results whose items are known to come from this dictionary.
func (d *Dictionary) MustName(id Item) string {
	name, err := d.Name(id)
	if err != nil {
		panic(err)
	}
	return name
}

// Names renders every item of the set through the dictionary, in item order.
func (d *Dictionary) Names(s Itemset) []string {
	out := make([]string, 0, len(s))
	for _, it := range s {
		out = append(out, d.MustName(it))
	}
	return out
}

// Len returns the number of distinct interned names.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

// Universe returns the itemset containing every interned item.
func (d *Dictionary) Universe() Itemset {
	out := make(Itemset, d.Len())
	for i := range out {
		out[i] = Item(i)
	}
	return out
}

// SortedNames returns all interned names in lexicographic order. It is mainly
// useful for deterministic serialization and tests.
func (d *Dictionary) SortedNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(d.byID))
	copy(out, d.byID)
	sort.Strings(out)
	return out
}
