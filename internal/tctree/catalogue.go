package tctree

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"

	"themecomm/internal/itemset"
)

// This file implements the per-shard containment sketch persisted in the
// manifest alongside the basic shard statistics: an item bloom filter over
// the distinct items of the shard's patterns. It is computed at encode time,
// over the walk that lays the shard out (splice.encode), and consulted by the
// engine's planner to rule shards out of containment queries without
// touching payload bytes.
//
// The filter cannot improve SUB-pattern queries: by anti-monotonicity the
// shard root's α* equals the shard's MaxAlpha, so whenever α_q < MaxAlpha
// the root's truss is non-empty and the shard must be opened — the existing
// α* skip is already exact there. For containment queries (all indexed
// patterns ⊇ q) it is decisive: a query item the filter rules out proves
// the shard contributes nothing.

const (
	// bloomBitsPerItem sizes the filter at ~10 bits per distinct item,
	// which with 7 hash functions gives a false-positive rate under 1%.
	bloomBitsPerItem = 10
	bloomHashes      = 7
)

// ItemBloom is a bloom filter over the distinct items appearing in a
// shard's indexed patterns. It answers "might item i appear anywhere in
// this shard?" with no false negatives.
type ItemBloom struct {
	bits []byte
	k    int
}

// newItemBloom sizes a filter for n distinct items.
func newItemBloom(n int) *ItemBloom {
	if n < 1 {
		n = 1
	}
	bytes := (n*bloomBitsPerItem + 7) / 8
	if bytes < 8 {
		bytes = 8
	}
	return &ItemBloom{bits: make([]byte, bytes), k: bloomHashes}
}

// bloomMix derives two independent 32-bit hashes from an item via a
// splitmix64 finalizer; the k probe positions are double-hashed from them.
func bloomMix(it itemset.Item) (uint32, uint32) {
	x := uint64(uint32(it)) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	h2 := uint32(x>>32) | 1 // odd, so probes cycle through all positions
	return uint32(x), h2
}

func (b *ItemBloom) add(it itemset.Item) {
	h1, h2 := bloomMix(it)
	m := uint32(len(b.bits) * 8)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint32(i)*h2) % m
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

// MayContain reports whether the item might appear in the shard. A false
// result is definitive: the item appears in no indexed pattern.
func (b *ItemBloom) MayContain(it itemset.Item) bool {
	if b == nil || len(b.bits) == 0 {
		return true
	}
	h1, h2 := bloomMix(it)
	m := uint32(len(b.bits) * 8)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint32(i)*h2) % m
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// bloomVersion prefixes the manifest encoding so the probe scheme can
// change without misreading old catalogues.
const bloomVersion = "b1"

// Encode renders the filter for the manifest: "b1:<k>:<base64 bits>".
func (b *ItemBloom) Encode() string {
	return bloomVersion + ":" + strconv.Itoa(b.k) + ":" + base64.RawStdEncoding.EncodeToString(b.bits)
}

// DecodeItemBloom parses a filter encoded by Encode. An empty string is a
// valid absent filter (nil, which MayContain treats as "maybe").
func DecodeItemBloom(s string) (*ItemBloom, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 || parts[0] != bloomVersion {
		return nil, fmt.Errorf("tctree: unrecognized bloom encoding %q", s)
	}
	k, err := strconv.Atoi(parts[1])
	if err != nil || k < 1 || k > 32 {
		return nil, fmt.Errorf("tctree: bad bloom hash count %q", parts[1])
	}
	bits, err := base64.RawStdEncoding.DecodeString(parts[2])
	if err != nil || len(bits) == 0 {
		return nil, fmt.Errorf("tctree: bad bloom bits: %v", err)
	}
	return &ItemBloom{bits: bits, k: k}, nil
}
