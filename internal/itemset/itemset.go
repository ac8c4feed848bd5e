// Package itemset provides the item and itemset (pattern) primitives used
// throughout the theme-community library.
//
// Items are small integer identifiers. An Itemset (also called a pattern or
// theme in the paper) is a canonically sorted, duplicate-free slice of items.
// The total order on items induced by their integer values is the order "≺"
// used by the set-enumeration tree (TC-Tree).
package itemset

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Item is the identifier of a single item in the item universe S.
type Item int32

// ParseID parses a numeric item identifier; numeric is false when field is an
// item name. Identifiers are 32-bit: anything outside [0, MaxInt32] is
// rejected rather than silently wrapped onto another item.
func ParseID(field string) (id Item, numeric bool, err error) {
	n, err := strconv.Atoi(field)
	if err != nil {
		return 0, false, nil
	}
	if n < 0 || n > math.MaxInt32 {
		return 0, true, fmt.Errorf("item id %d outside [0, %d]", n, math.MaxInt32)
	}
	return Item(n), true, nil
}

// Itemset is a canonically sorted, duplicate-free set of items.
// The zero value is the empty itemset.
type Itemset []Item

// New returns a canonical Itemset built from the given items: sorted in
// ascending order with duplicates removed. The input slice is not modified.
func New(items ...Item) Itemset {
	if len(items) == 0 {
		return nil
	}
	cp := make([]Item, len(items))
	copy(cp, items)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:1]
	for _, it := range cp[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return Itemset(out)
}

// FromSorted wraps an already sorted, duplicate-free slice as an Itemset
// without copying. It panics if the slice is not strictly increasing, because
// silently accepting unsorted data would corrupt every downstream set
// operation.
func FromSorted(items []Item) Itemset {
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			panic(fmt.Sprintf("itemset: FromSorted input not strictly increasing at index %d", i))
		}
	}
	return Itemset(items)
}

// Len returns the number of items in the set (the pattern length |p|).
func (s Itemset) Len() int { return len(s) }

// Empty reports whether the itemset has no items.
func (s Itemset) Empty() bool { return len(s) == 0 }

// Clone returns a copy of the itemset.
func (s Itemset) Clone() Itemset {
	if s == nil {
		return nil
	}
	cp := make(Itemset, len(s))
	copy(cp, s)
	return cp
}

// Contains reports whether item it is a member of s.
func (s Itemset) Contains(it Item) bool {
	_, found := slices.BinarySearch(s, it)
	return found
}

// ContainsAll reports whether sub ⊆ s.
func (s Itemset) ContainsAll(sub Itemset) bool {
	return sub.SubsetOf(s)
}

// SubsetOf reports whether s ⊆ other.
func (s Itemset) SubsetOf(other Itemset) bool {
	if len(s) > len(other) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] == other[j]:
			i++
			j++
		case s[i] > other[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// ProperSubsetOf reports whether s ⊂ other and s ≠ other.
func (s Itemset) ProperSubsetOf(other Itemset) bool {
	return len(s) < len(other) && s.SubsetOf(other)
}

// Equal reports whether s and other contain exactly the same items.
func (s Itemset) Equal(other Itemset) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ other as a new Itemset.
func (s Itemset) Union(other Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			out = append(out, s[i])
			i++
		case s[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Intersect returns s ∩ other as a new Itemset.
func (s Itemset) Intersect(other Itemset) Itemset {
	var out Itemset
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			i++
		case s[i] > other[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns s \ other as a new Itemset.
func (s Itemset) Minus(other Itemset) Itemset {
	var out Itemset
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j >= len(other) || s[i] < other[j]:
			out = append(out, s[i])
			i++
		case s[i] > other[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// Add returns a new Itemset containing the items of s plus it.
func (s Itemset) Add(it Item) Itemset {
	if s.Contains(it) {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)+1)
	i := 0
	for ; i < len(s) && s[i] < it; i++ {
		out = append(out, s[i])
	}
	out = append(out, it)
	out = append(out, s[i:]...)
	return out
}

// Remove returns a new Itemset containing the items of s without it.
func (s Itemset) Remove(it Item) Itemset {
	if !s.Contains(it) {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)-1)
	for _, v := range s {
		if v != it {
			out = append(out, v)
		}
	}
	return out
}

// Last returns the largest item of the set. It panics on the empty set.
func (s Itemset) Last() Item {
	if len(s) == 0 {
		panic("itemset: Last of empty itemset")
	}
	return s[len(s)-1]
}

// Prefix returns the first n items of the set (a prefix under the total
// order ≺). It panics if n is out of range.
func (s Itemset) Prefix(n int) Itemset {
	if n < 0 || n > len(s) {
		panic("itemset: Prefix length out of range")
	}
	return s[:n].Clone()
}

// IsPrefixOf reports whether s is a prefix of other under the total order ≺,
// i.e. other starts with exactly the items of s.
func (s Itemset) IsPrefixOf(other Itemset) bool {
	if len(s) > len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Subsets of length k-1 obtained by removing exactly one item.
// Used by the Apriori candidate check (Algorithm 2 of the paper).
func (s Itemset) ImmediateSubsets() []Itemset {
	if len(s) == 0 {
		return nil
	}
	out := make([]Itemset, 0, len(s))
	for i := range s {
		sub := make(Itemset, 0, len(s)-1)
		sub = append(sub, s[:i]...)
		sub = append(sub, s[i+1:]...)
		out = append(out, sub)
	}
	return out
}

// Key returns a compact string key uniquely identifying the itemset. Keys are
// suitable as map keys; the empty itemset has the empty key.
func (s Itemset) Key() Key {
	if len(s) == 0 {
		return ""
	}
	// Encode items as 4-byte big-endian runes packed into a string. This is
	// compact, allocation-light and collision-free.
	b := make([]byte, 0, 4*len(s))
	for _, it := range s {
		v := uint32(it)
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return Key(b)
}

// Key is the map-key representation of an itemset produced by Itemset.Key.
type Key string

// Itemset decodes the key back into the itemset it was produced from.
func (k Key) Itemset() Itemset {
	if len(k) == 0 {
		return nil
	}
	if len(k)%4 != 0 {
		panic("itemset: malformed key")
	}
	out := make(Itemset, 0, len(k)/4)
	for i := 0; i < len(k); i += 4 {
		v := uint32(k[i])<<24 | uint32(k[i+1])<<16 | uint32(k[i+2])<<8 | uint32(k[i+3])
		out = append(out, Item(v))
	}
	return out
}

// String renders the itemset as "{1, 5, 9}".
func (s Itemset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.Itoa(int(it)))
	}
	sb.WriteByte('}')
	return sb.String()
}

// Compare orders itemsets first by their items lexicographically and then by
// length, so that a proper prefix sorts before its extensions. It returns
// -1, 0 or 1.
func Compare(a, b Itemset) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Sort sorts a slice of itemsets in the order defined by Compare.
func Sort(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool { return Compare(sets[i], sets[j]) < 0 })
}
