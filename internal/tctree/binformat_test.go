package tctree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// binShardFixtures encodes every first-level subtree of a generated tree and
// returns the shard roots alongside their TCBIN payloads and manifest entries.
func binShardFixtures(t *testing.T, seed int64) (*Tree, []*Node, [][]byte, []ShardEntry) {
	t.Helper()
	tree := buildShardedTestTree(t, seed)
	var roots []*Node
	var bufs [][]byte
	var entries []ShardEntry
	for _, c := range tree.Root().Children {
		enc, err := encodeShardBinary(c)
		if err != nil {
			t.Fatalf("encodeShardBinary(%d): %v", c.Item, err)
		}
		roots = append(roots, c)
		bufs = append(bufs, enc.Data)
		entries = append(entries, enc.Entry)
	}
	return tree, roots, bufs, entries
}

// assertSameShardAnswer requires two shard answers to agree on the counters
// and on every community record: theme, vertex list, edge count and — bit for
// bit — cohesion, in the same order.
func assertSameShardAnswer(t *testing.T, label string, got, want ShardAnswer) {
	t.Helper()
	if got.Visited != want.Visited || got.Retrieved != want.Retrieved {
		t.Fatalf("%s: visited %d and retrieved %d nodes, want %d and %d", label, got.Visited, got.Retrieved, want.Visited, want.Retrieved)
	}
	if len(got.Communities) != len(want.Communities) {
		t.Fatalf("%s: %d communities, want %d", label, len(got.Communities), len(want.Communities))
	}
	for i, w := range want.Communities {
		g := got.Communities[i]
		if !g.Pattern.Equal(w.Pattern) || !slices.Equal(g.Vertices, w.Vertices) || g.Edges != w.Edges || g.Cohesion != w.Cohesion {
			t.Fatalf("%s: community %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// shardQueryPatterns builds a query mix for one shard: every indexed pattern
// and prefix of one, patterns with foreign items mixed in, and nil.
func shardQueryPatterns(root *Node) []itemset.Itemset {
	var qs []itemset.Itemset
	qs = append(qs, nil, itemset.New(root.Item), itemset.New(997))
	var walk func(n *Node)
	walk = func(n *Node) {
		qs = append(qs, n.Pattern, n.Pattern.Add(999))
		if n.Pattern.Len() > 1 {
			qs = append(qs, n.Pattern[1:])
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return qs
}

// TestBinShardRoundTrip checks encodeShardBinary → DecodeBinShard →
// Materialize reproduces the source subtree exactly, and that the returned
// manifest entry carries the statistics and catalogue shardCatalogue
// computes.
func TestBinShardRoundTrip(t *testing.T) {
	_, roots, bufs, entries := binShardFixtures(t, 19)
	for i, root := range roots {
		b, err := DecodeBinShard(bufs[i], entries[i])
		if err != nil {
			t.Fatalf("DecodeBinShard(%d): %v", root.Item, err)
		}
		if b.RootItem() != root.Item {
			t.Fatalf("RootItem = %d, want %d", b.RootItem(), root.Item)
		}
		if b.SizeBytes() != int64(len(bufs[i])) {
			t.Fatalf("SizeBytes = %d, want %d", b.SizeBytes(), len(bufs[i]))
		}
		back, err := b.Materialize()
		if err != nil {
			t.Fatalf("Materialize(%d): %v", root.Item, err)
		}
		assertSameSubtree(t, root, back)

		stats, bloom := shardCatalogue(root)
		e := entries[i]
		if e.Nodes != stats.Nodes || e.Depth != stats.Depth || !approx(e.MaxAlpha, stats.MaxAlpha) {
			t.Fatalf("entry stats %+v disagree with shardCatalogue %+v", e, stats)
		}
		if e.Bloom != bloom {
			t.Fatalf("entry bloom %q disagrees with shardCatalogue %q", e.Bloom, bloom)
		}
		if want := fmt.Sprintf("shard-%d-%s.tcbin", root.Item, strings.TrimPrefix(e.Checksum, "crc32c:")); e.File != want {
			t.Fatalf("entry file %q, want %q", e.File, want)
		}
	}
}

// TestBinShardViewParity drives the BinShard and NodeView implementations of
// every ShardView method over the same query mix and requires identical
// answers — the zero-copy traversal must be observationally equal to the
// pointer-tree traversal, counters included, ranked (under a floor) or not.
// Seed 19's shards are single nodes, seed 25's reach depth 3.
func TestBinShardViewParity(t *testing.T) {
	for _, seed := range []int64{19, 25} {
		checkBinShardViewParity(t, seed)
	}
}

func checkBinShardViewParity(t *testing.T, seed int64) {
	tree, roots, bufs, entries := binShardFixtures(t, seed)
	alphas := []float64{0, 0.1, 0.25, treeMaxAlpha(tree) / 2, treeMaxAlpha(tree), treeMaxAlpha(tree) + 1}
	for i, root := range roots {
		bin, err := DecodeBinShard(bufs[i], entries[i])
		if err != nil {
			t.Fatalf("DecodeBinShard(%d): %v", root.Item, err)
		}
		view := NewNodeView(root)
		for _, q := range shardQueryPatterns(root) {
			for _, alpha := range alphas {
				assertSameShardAnswer(t, "QuerySub", bin.QuerySub(q, alpha, nil), view.QuerySub(q, alpha, nil))
				for _, k := range []int{1, 2} {
					assertSameShardAnswer(t, fmt.Sprintf("ranked QuerySub, k=%d", k),
						bin.QuerySub(q, alpha, truss.NewFloor(k)), view.QuerySub(q, alpha, truss.NewFloor(k)))
				}
				if q != nil {
					assertSameShardAnswer(t, "QueryContaining",
						bin.QueryContaining(q, alpha), view.QueryContaining(q, alpha))
				}
			}
		}

		// WalkPatterns must list the same patterns in the same order.
		var pats []itemset.Itemset
		bin.WalkPatterns(func(p itemset.Itemset) { pats = append(pats, p) })
		var viewPats []itemset.Itemset
		view.WalkPatterns(func(p itemset.Itemset) { viewPats = append(viewPats, p) })
		if len(pats) != len(viewPats) {
			t.Fatalf("WalkPatterns yields %d patterns, NodeView %d", len(pats), len(viewPats))
		}
		for j := range pats {
			if !pats[j].Equal(viewPats[j]) {
				t.Fatalf("WalkPatterns order diverges at %d: %v vs %v", j, pats[j], viewPats[j])
			}
		}
	}
}

// corruptCase is one hostile mutation of a valid TCBIN payload.
type corruptCase struct {
	name    string
	mutate  func(data []byte) []byte
	wantSub string
}

func binCorruptions() []corruptCase {
	return []corruptCase{
		{"empty", func(d []byte) []byte { return nil }, "too small"},
		{"truncated header", func(d []byte) []byte { return d[:binHeaderSize-1] }, "too small"},
		{"truncated tail", func(d []byte) []byte { return d[:len(d)-1] }, "footer offset"},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, "bad magic"},
		{"bad version", func(d []byte) []byte { binary.LittleEndian.PutUint16(d[8:], binVersion+1); return d }, "version"},
		{"bad end magic", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }, "end magic"},
		{"payload bit flip", func(d []byte) []byte { d[len(d)/2] ^= 0x01; return d }, "checksum"},
		{"crc flip", func(d []byte) []byte { d[len(d)-binFooterSize] ^= 0xff; return d }, "checksum"},
	}
}

// TestBinShardChecksumsDistinct pins the manifest checksum of a TCBIN shard
// to the body CRC its footer embeds. The whole-file CRC is useless here: a
// file ending in its own CRC hashes to one constant residue, so every TCBIN
// shard would share one checksum and the content names that embed it would
// collide across generations of the same shard — a freshly staged file could
// silently overwrite one the live manifest still references.
func TestBinShardChecksumsDistinct(t *testing.T) {
	_, _, bufs, entries := binShardFixtures(t, 3)
	if len(entries) < 2 {
		t.Fatal("need at least two shards")
	}
	seen := make(map[string]int32)
	for i, entry := range entries {
		data := bufs[i]
		footerOff := len(data) - binFooterSize
		stored := binary.LittleEndian.Uint32(data[footerOff:])
		if want := fmt.Sprintf("crc32c:%08x", stored); entry.Checksum != want {
			t.Fatalf("shard %d: manifest checksum %s, footer holds %s", entry.Item, entry.Checksum, want)
		}
		if prev, dup := seen[entry.Checksum]; dup {
			t.Fatalf("shards %d and %d share checksum %s", prev, entry.Item, entry.Checksum)
		}
		seen[entry.Checksum] = entry.Item
	}
}

// reseal recomputes the footer CRC so a structural mutation survives the
// checksum gate and exercises the deep validators; open the result under
// footerEntry.
func reseal(d []byte) []byte {
	footerOff := len(d) - binFooterSize
	binary.LittleEndian.PutUint32(d[footerOff:], crc32.Checksum(d[:footerOff], castagnoli))
	return d
}

// footerEntry is entry with the checksum the payload's footer records, so a
// resealed payload passes the manifest cross-checks and reaches the
// structural ones.
func footerEntry(d []byte, entry ShardEntry) ShardEntry {
	if len(d) >= binFooterSize {
		entry.Checksum = checksumOf(binary.LittleEndian.Uint32(d[len(d)-binFooterSize:]))
	}
	return entry
}

func binStructuralCorruptions() []corruptCase {
	return []corruptCase{
		{"node count zero", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[16:], 0)
			return reseal(d)
		}, ""},
		{"child total mismatch", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[24:], binary.LittleEndian.Uint32(d[24:])+1)
			return reseal(d)
		}, ""},
		{"section offset skew", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[48:], binary.LittleEndian.Uint64(d[48:])+4)
			return reseal(d)
		}, "section offsets"},
		{"item index out of range", func(d []byte) []byte {
			nodeOff := binary.LittleEndian.Uint64(d[48:])
			binary.LittleEndian.PutUint32(d[nodeOff:], ^uint32(0))
			return reseal(d)
		}, ""},
		{"child range overflow", func(d []byte) []byte {
			nodeOff := binary.LittleEndian.Uint64(d[48:])
			binary.LittleEndian.PutUint32(d[nodeOff+binNodeChildCount:], ^uint32(0))
			return reseal(d)
		}, ""},
		{"freq count zero", func(d []byte) []byte {
			nodeOff := binary.LittleEndian.Uint64(d[48:])
			binary.LittleEndian.PutUint32(d[nodeOff+binNodeFreqCount:], 0)
			return reseal(d)
		}, ""},
		{"level range overflow", func(d []byte) []byte {
			nodeOff := binary.LittleEndian.Uint64(d[48:])
			binary.LittleEndian.PutUint32(d[nodeOff+binNodeLevelCount:], ^uint32(0))
			return reseal(d)
		}, ""},
		{"level threshold +Inf", func(d []byte) []byte {
			// The root's last level: a cohesion no JSON encoder can write.
			putRootLastThreshold(d, math.Inf(1))
			return reseal(d)
		}, "not finite"},
		{"child bound above its parent's", func(d []byte) []byte {
			// Anti-monotonicity caps a child's α* bound at its parent's; a
			// ranked traversal prunes whole subtrees on that promise.
			putLastThreshold(d, firstChild(d), lastThreshold(d, 0)+1e-6)
			return reseal(d)
		}, "exceeds an ancestor's"},
		{"more components than the run holds triangles", func(d []byte) []byte {
			// Every component holds a triangle: a run of n vertices holds
			// at most n/3 of them.
			nodeOff := binary.LittleEndian.Uint64(d[48:])
			fc := binary.LittleEndian.Uint32(d[nodeOff+binNodeFreqCount:])
			binary.LittleEndian.PutUint32(d[nodeOff+binNodeComponents:], fc/3+1)
			return reseal(d)
		}, "components on a frequency run"},
		{"self child", func(d []byte) []byte {
			// Point the root's first child entry back at the root.
			childOff := binary.LittleEndian.Uint64(d[56:])
			binary.LittleEndian.PutUint32(d[childOff:], 0)
			return reseal(d)
		}, "breadth-first"},
	}
}

// putRootLastThreshold overwrites the threshold of the root's last level.
func putRootLastThreshold(d []byte, alpha float64) { putLastThreshold(d, 0, alpha) }

// lastLevelAt returns where node's last level threshold lies in d.
func lastLevelAt(d []byte, node uint32) uint64 {
	rec := binary.LittleEndian.Uint64(d[48:]) + uint64(node)*binNodeSize
	levelStart := uint64(binary.LittleEndian.Uint32(d[rec+binNodeLevelStart:]))
	levelCount := uint64(binary.LittleEndian.Uint32(d[rec+binNodeLevelCount:]))
	return binary.LittleEndian.Uint64(d[72:]) + (levelStart+levelCount-1)*binLevelSize
}

// lastThreshold is node's α* bound: the threshold of its last level.
func lastThreshold(d []byte, node uint32) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d[lastLevelAt(d, node):]))
}

// putLastThreshold overwrites the threshold of node's last level.
func putLastThreshold(d []byte, node uint32, alpha float64) {
	binary.LittleEndian.PutUint64(d[lastLevelAt(d, node):], math.Float64bits(alpha))
}

// firstChild is the node index of the root's first child.
func firstChild(d []byte) uint32 {
	le := binary.LittleEndian
	rootRec, childOff := le.Uint64(d[48:]), le.Uint64(d[56:])
	first := uint64(le.Uint32(d[rootRec+binNodeChildStart:]))
	return le.Uint32(d[childOff+4*first:])
}

// TestDecodeBinShardRejectsCorruption runs every mutation over a valid shard
// and requires a descriptive error — and no panic — from DecodeBinShard.
func TestDecodeBinShardRejectsCorruption(t *testing.T) {
	// Seed 25's largest shard has five nodes: structural mutations hit real
	// child and level tables.
	_, roots, bufs, entries := binShardFixtures(t, 25)
	best := 0
	for i := range bufs {
		if len(bufs[i]) > len(bufs[best]) {
			best = i
		}
	}
	valid, entry := bufs[best], entries[best]
	if _, err := DecodeBinShard(append([]byte(nil), valid...), entry); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	if roots[best].Children == nil {
		t.Fatalf("the largest fixture shard has one node; pick a seed with a deeper shard")
	}
	for _, c := range append(binCorruptions(), binStructuralCorruptions()...) {
		t.Run(c.name, func(t *testing.T) {
			data := c.mutate(append([]byte(nil), valid...))
			sh, err := DecodeBinShard(data, footerEntry(data, entry))
			if err == nil {
				t.Fatalf("corruption %q decoded successfully", c.name)
			}
			if sh != nil {
				t.Fatalf("corruption %q returned a non-nil shard with an error", c.name)
			}
			if c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("corruption %q error %q does not mention %q", c.name, err, c.wantSub)
			}
		})
	}

	// Manifest cross-checks: the payload may be pristine but disagree with
	// the entry it is opened under.
	badItem := entry
	badItem.Item++
	if _, err := DecodeBinShard(append([]byte(nil), valid...), badItem); err == nil {
		t.Fatalf("shard decoded under a manifest entry for another item")
	}
	badNodes := entry
	badNodes.Nodes++
	if _, err := DecodeBinShard(append([]byte(nil), valid...), badNodes); err == nil {
		t.Fatalf("shard decoded under a manifest entry with the wrong node count")
	}
	badChecksum := entry
	badChecksum.Checksum = "crc32c:00000000"
	if _, err := DecodeBinShard(append([]byte(nil), valid...), badChecksum); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("shard decoded under a manifest entry with another checksum: %v", err)
	}

	// Bounds computed along different paths drift by a few ULPs; the
	// decoder compares within the tolerance, never exactly.
	drift := append([]byte(nil), valid...)
	putLastThreshold(drift, firstChild(drift), lastThreshold(drift, 0)+cohesionTolerance/2)
	if _, err := DecodeBinShard(reseal(drift), footerEntry(drift, entry)); err != nil {
		t.Fatalf("a child bound within the tolerance above its parent's was refused: %v", err)
	}
}

// TestWriteShardedBinaryRoundTrip pins what WriteShardedAs puts on disk: a
// manifest that records the TCBIN format and the tree's totals, .tcbin shard
// files, and shards that open zero-copy as *BinShard. (Query identity of the
// round trip is TestRoundTripAnswersQueriesIdentically.)
func TestWriteShardedBinaryRoundTrip(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	m, err := tree.WriteShardedAs(dir, FormatTCBIN)
	if err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	if m.Format != FormatTCBIN {
		t.Fatalf("manifest format %q, want %q", m.Format, FormatTCBIN)
	}
	if m.TotalNodes() != tree.NumNodes() || m.Depth() != tree.Depth() || !approx(m.MaxAlpha(), treeMaxAlpha(tree)) {
		t.Fatalf("manifest totals (%d, %d, %v) disagree with tree (%d, %d, %v)",
			m.TotalNodes(), m.Depth(), m.MaxAlpha(), tree.NumNodes(), tree.Depth(), treeMaxAlpha(tree))
	}
	for _, e := range m.Shards {
		if !strings.HasSuffix(e.File, ".tcbin") {
			t.Fatalf("shard file %q does not use the .tcbin extension", e.File)
		}
	}
	if _, err := tree.WriteShardedAs(t.TempDir(), "gob"); err == nil {
		t.Fatalf("WriteShardedAs accepted a format other than %q", FormatTCBIN)
	}

	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	view, err := idx.LoadShardView(itemset.Item(m.Shards[0].Item))
	if err != nil {
		t.Fatalf("LoadShardView: %v", err)
	}
	if _, ok := view.(*BinShard); !ok {
		t.Fatalf("LoadShardView returned %T, want *BinShard", view)
	}
	if view.SizeBytes() <= 0 {
		t.Fatalf("BinShard view reports %d bytes", view.SizeBytes())
	}
	// An evicted view gave its pages back, not its bytes: a traversal that
	// still holds it answers as before, and a view over heap bytes is left
	// alone.
	q := itemset.New(itemset.Item(m.Shards[0].Item))
	before := view.QuerySub(q, 0, nil)
	view.Evicted()
	assertSameShardAnswer(t, "after Evicted", view.QuerySub(q, 0, nil), before)
	_, _, bufs, entries := binShardFixtures(t, 19)
	heap, err := DecodeBinShard(bufs[0], entries[0])
	if err != nil {
		t.Fatal(err)
	}
	heap.Evicted()
	if _, err := DecodeBinShard(bufs[0], entries[0]); err != nil {
		t.Fatalf("Evicted on a heap-backed shard damaged its bytes: %v", err)
	}
}

// TestLoadShardVerifiesChecksumTCBIN is TestLoadShardVerifiesChecksum on the
// serving read path: a flipped byte must surface as a checksum mismatch from
// LoadShardView, before any traversal can touch the bytes.
func TestLoadShardVerifiesChecksumTCBIN(t *testing.T) {
	idx, m := corruptedFirstShard(t)
	if _, err := idx.LoadShardView(itemset.Item(m.Shards[0].Item)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("LoadShardView on a corrupted file returned %v, want checksum mismatch", err)
	}
}

// TestCatalogueCodecs round-trips the bloom string encoding and rejects
// malformed inputs.
func TestCatalogueCodecs(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	root := tree.Root().Children[0]
	_, bloomStr := shardCatalogue(root)

	bloom, err := DecodeItemBloom(bloomStr)
	if err != nil {
		t.Fatalf("DecodeItemBloom(%q): %v", bloomStr, err)
	}
	var items []itemset.Item
	seen := map[itemset.Item]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if !seen[n.Item] {
			seen[n.Item] = true
			items = append(items, n.Item)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, it := range items {
		if !bloom.MayContain(it) {
			t.Fatalf("bloom filter rejects indexed item %d (false negative)", it)
		}
	}
	if bloom.Encode() != bloomStr {
		t.Fatalf("bloom re-encode %q, want %q", bloom.Encode(), bloomStr)
	}
	var nilBloom *ItemBloom
	if !nilBloom.MayContain(1) {
		t.Fatalf("a nil bloom must admit every item")
	}

	for _, bad := range []string{"b2:7:AAAA", "b1:0:AAAA", "b1:7:!!!"} {
		if _, err := DecodeItemBloom(bad); err == nil {
			t.Fatalf("DecodeItemBloom(%q) accepted malformed input", bad)
		}
	}
}

// pairCorruptions rewrites the first level of a valid shard's root that
// holds two or more edges into what DecodeBinShard refuses — a position past
// the node's frequency run, i == j (a self-loop), i > j (a pair stored
// descending) and two pairs out of order — and reseals the payload so it
// reaches the pair check. It returns none when the root has no such level.
func pairCorruptions(valid []byte) []corruptCase {
	le := binary.LittleEndian
	nodeOff, levelOff, edgeOff := le.Uint64(valid[48:]), le.Uint64(valid[72:]), le.Uint64(valid[80:])
	ps := binPairSize(le.Uint16(valid[10:])&binFlagWide != 0)
	fc := le.Uint32(valid[nodeOff+binNodeFreqCount:])
	ls := uint64(le.Uint32(valid[nodeOff+binNodeLevelStart:]))
	lc := uint64(le.Uint32(valid[nodeOff+binNodeLevelCount:]))
	at := uint64(0)
	for l := ls; l < ls+lc; l++ {
		if o := levelOff + l*binLevelSize; le.Uint32(valid[o+12:]) >= 2 {
			at = edgeOff + uint64(le.Uint32(valid[o+8:]))*ps
			break
		}
	}
	if at == 0 {
		return nil
	}
	// get and put read and write position k of the level, pairs counted
	// two positions each.
	get := func(d []byte, k uint64) uint32 {
		if ps == 8 {
			return le.Uint32(d[at+4*k:])
		}
		return uint32(le.Uint16(d[at+2*k:]))
	}
	put := func(d []byte, k uint64, v uint32) {
		if ps == 8 {
			le.PutUint32(d[at+4*k:], v)
		} else {
			le.PutUint16(d[at+2*k:], uint16(v))
		}
	}
	mutate := func(fn func(d []byte)) func([]byte) []byte {
		return func(d []byte) []byte { fn(d); return reseal(d) }
	}
	return []corruptCase{
		{"position past the run", mutate(func(d []byte) { put(d, 1, fc) }), "position pairs"},
		{"self-loop pair", mutate(func(d []byte) { put(d, 0, get(d, 1)) }), "position pairs"},
		{"descending pair", mutate(func(d []byte) { i, j := get(d, 0), get(d, 1); put(d, 0, j); put(d, 1, i) }), "position pairs"},
		{"pairs out of order", mutate(func(d []byte) {
			i0, j0, i1, j1 := get(d, 0), get(d, 1), get(d, 2), get(d, 3)
			put(d, 0, i1)
			put(d, 1, j1)
			put(d, 2, i0)
			put(d, 3, j0)
		}), "position pairs"},
	}
}

// rewidth re-encodes a valid payload's edge table at the other position
// width, flips the header flag, moves the footer and reseals: a payload
// that is well-formed but for the width the encoder would pick.
func rewidth(valid []byte) []byte {
	le := binary.LittleEndian
	wide := le.Uint16(valid[10:])&binFlagWide != 0
	edgeOff := le.Uint64(valid[80:])
	edges := uint64(le.Uint32(valid[36:]))
	footerOff := edgeOff + edges*binPairSize(!wide)
	d := make([]byte, footerOff+binFooterSize)
	copy(d, valid[:edgeOff])
	repack(d[edgeOff:], valid[edgeOff:uint64(len(valid))-binFooterSize], wide, !wide)
	le.PutUint16(d[10:], le.Uint16(valid[10:])^binFlagWide)
	le.PutUint64(d[88:], footerOff)
	copy(d[footerOff+4:], binEndMagic)
	return reseal(d)
}

// wideNode is the root of item's shard with a frequency run one vertex
// longer than u16 positions reach, holding one edge from its first vertex to
// its last.
func wideNode(item itemset.Item) *Node {
	d := &truss.Decomposition{Pattern: itemset.New(item)}
	for v := 0; v <= binNarrowRun; v++ {
		d.Vertices = append(d.Vertices, graph.VertexID(v))
		d.Freqs = append(d.Freqs, 1)
	}
	d.Levels = []truss.Level{{Alpha: 0.5, Removed: []graph.Edge{{U: 0, V: binNarrowRun}}}}
	return &Node{Item: item, Pattern: d.Pattern, Decomp: d}
}

// TestDecodeBinShardRefusesBadPairs holds the decoder to the edge table's
// rule: every pair i < j < freqCount, ascending within its level, at the
// width the longest frequency run needs.
func TestDecodeBinShardRefusesBadPairs(t *testing.T) {
	_, _, bufs, entries := binShardFixtures(t, 19)
	tried := 0
	for i, valid := range bufs {
		for _, c := range pairCorruptions(valid) {
			tried++
			data := c.mutate(slices.Clone(valid))
			_, err := DecodeBinShard(data, footerEntry(data, entries[i]))
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("shard %d, %s: DecodeBinShard returned %v, want an error about %q", entries[i].Item, c.name, err, c.wantSub)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no shard root has a level of two edges to corrupt")
	}

	rewidened := rewidth(bufs[0])
	if _, err := DecodeBinShard(rewidened, footerEntry(rewidened, entries[0])); err == nil || !strings.Contains(err.Error(), "fits u16") {
		t.Fatalf("u32 positions on a narrow shard: DecodeBinShard returned %v", err)
	}
	enc, err := encodeShardBinary(wideNode(1))
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint16(enc.Data[10:])&binFlagWide == 0 {
		t.Fatalf("a run of %d vertices was encoded with u16 positions", binNarrowRun+1)
	}
	sh, err := enc.Open()
	if err != nil {
		t.Fatalf("the wide shard is refused: %v", err)
	}
	if got := sh.QuerySub(itemset.New(1), 0, nil).Communities; len(got) != 1 || !slices.Equal(got[0].Vertices, []graph.VertexID{0, binNarrowRun}) {
		t.Fatalf("the wide shard answers %+v", got)
	}
	narrowed := rewidth(enc.Data)
	if _, err := DecodeBinShard(narrowed, footerEntry(narrowed, enc.Entry)); err == nil || !strings.Contains(err.Error(), "needs u32") {
		t.Fatalf("u16 positions on a shard whose run needs u32: DecodeBinShard returned %v", err)
	}
}

// edgeInTwoLevels is a shard root whose edge {10, 20} is stored in both of
// its levels: what no decomposition holds, but every pair is well-formed.
func edgeInTwoLevels() *Node {
	d := &truss.Decomposition{
		Pattern:  itemset.New(1),
		Vertices: []graph.VertexID{10, 20, 30},
		Freqs:    []float64{1, 1, 1},
		Levels: []truss.Level{
			{Alpha: 0.5, Removed: []graph.Edge{{U: 10, V: 20}, {U: 20, V: 30}}},
			{Alpha: 1, Removed: []graph.Edge{{U: 10, V: 20}}},
		},
	}
	return &Node{Item: 1, Pattern: d.Pattern, Decomp: d}
}

// TestSpliceRepacksAcrossWidths splices a shard's subtrees under a root whose
// run changes the shard's position width, both ways, and requires the bytes
// of encoding the whole shard at once: carried-over pairs are re-encoded at
// the new width, not copied.
func TestSpliceRepacksAcrossWidths(t *testing.T) {
	narrow := Build(dbnet.PaperExample(), BuildOptions{}).Root().Children[0]
	if len(narrow.Children) == 0 {
		t.Fatal("the fixture shard has no subtree to carry over")
	}
	wide := wideNode(narrow.Item)
	for _, c := range narrow.Children {
		wide.addChild(c)
	}
	for _, tc := range []struct {
		name       string
		from, into *Node
	}{{"u16 to u32", narrow, wide}, {"u32 to u16", wide, narrow}} {
		prev := openEncoded(t, tc.from)
		root := &Node{Item: tc.into.Item, Pattern: tc.into.Pattern, Decomp: tc.into.Decomp}
		var grafts []uint32
		cs, cc := prev.run(0, binNodeChildStart)
		for c := cs; c < cs+cc; c++ {
			grafts = append(grafts, prev.childAt(c))
		}
		got, reused, err := splice{root: root, prev: prev, grafts: map[*Node][]uint32{root: grafts}}.encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := encodeShardBinary(tc.into)
		if err != nil {
			t.Fatal(err)
		}
		if reused == 0 || !slices.Equal(got.Data, want.Data) {
			t.Fatalf("%s: the splice (%d nodes carried over) differs from the shard encoded whole", tc.name, reused)
		}
	}
}

// TestDecodeBinShardAcceptsAnEdgeInTwoLevels pins what the pair check leaves
// to the kernel: an edge stored in two levels is well-formed pair by pair, so
// the shard opens, a query answers without panicking and counts the edge
// twice, and Materialize, which validates the decomposition, refuses it.
func TestDecodeBinShardAcceptsAnEdgeInTwoLevels(t *testing.T) {
	sh := openEncoded(t, edgeInTwoLevels())
	got := sh.QuerySub(itemset.New(1), 0, nil).Communities
	if len(got) != 1 || got[0].Edges != 3 || !slices.Equal(got[0].Vertices, []graph.VertexID{10, 20, 30}) || got[0].Cohesion != 0.5 {
		t.Fatalf("an edge in two levels answers %+v, want one community of 3 vertices and 3 edges", got)
	}
	if _, err := sh.Materialize(); err == nil {
		t.Fatal("Materialize accepted an edge stored twice")
	}
}

// TestDecodeBinShardRefusesVersion1 opens a shard an earlier release wrote
// — endpoint keys where version 2 stores position pairs — and requires the
// refusal to name the rebuild command.
func TestDecodeBinShardRefusesVersion1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "tcbin-v1", "shard-1.tcbin"))
	if err != nil {
		t.Fatal(err)
	}
	entry := ShardEntry{File: "shard-1.tcbin", Item: int32(binary.LittleEndian.Uint32(data[12:])), Nodes: int(binary.LittleEndian.Uint32(data[16:]))}
	if _, err := DecodeBinShard(data, entry); err == nil || !strings.Contains(err.Error(), "tcindex -in") {
		t.Fatalf("a version 1 shard: DecodeBinShard returned %v, want a refusal naming tcindex", err)
	}
}

// FuzzTCBINDecode feeds arbitrary bytes to DecodeBinShard under a manifest
// entry synthesized from the payload's own header and footer, so fuzzing
// reaches the structural validators behind the entry cross-checks. The
// decoder must
// either error or return a shard whose every traversal — the read kernel
// included, which trusts every position pair the decoder let through — and
// whose Materialize run without panics or out-of-range reads, and which an
// update can take as its previous shard: spliced whole under a new root, it
// must come out as bytes DecodeBinShard accepts. The seeds include resealed
// payloads with each pair the decoder refuses, one at the width the encoder
// would not pick, and one with an edge in two levels, which it accepts. Each
// shard is seeded as encoded, its nodes' component counts recorded (so the
// kernel answers whole nodes without a split), and as an index written
// before the count holds it, every count 0 (so the kernel splits them); the
// checked-in corpus keeps both (valid-shard-N and valid-shard-N-counted).
func FuzzTCBINDecode(f *testing.F) {
	nw := dbnet.PaperExample()
	tree := Build(nw, BuildOptions{})
	mined := tree.Root().Children[0].Decomp
	for _, c := range tree.Root().Children {
		enc, err := encodeShardBinary(c)
		if err != nil {
			f.Fatalf("encodeShardBinary: %v", err)
		}
		buf := enc.Data
		f.Add(buf)
		legacy, _ := legacyCopy(enc)
		f.Add(legacy)
		truncated := append([]byte(nil), buf[:len(buf)/2]...)
		f.Add(truncated)
		flipped := append([]byte(nil), buf...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
		for _, c := range pairCorruptions(buf) {
			f.Add(c.mutate(slices.Clone(buf)))
		}
		f.Add(rewidth(buf))
		infThreshold := append([]byte(nil), buf...)
		putRootLastThreshold(infThreshold, math.Inf(1))
		f.Add(reseal(infThreshold))
		if c.Children != nil {
			childAbove := append([]byte(nil), buf...)
			putLastThreshold(childAbove, firstChild(childAbove), lastThreshold(childAbove, 0)+1e-6)
			f.Add(reseal(childAbove))
		}
	}
	enc, err := encodeShardBinary(edgeInTwoLevels())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Data)
	f.Add([]byte{})
	f.Add([]byte("TCBIN\r\n\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entry := footerEntry(data, ShardEntry{File: "fuzz.tcbin"})
		if len(data) >= 20 {
			entry.Item = int32(binary.LittleEndian.Uint32(data[12:]))
			entry.Nodes = int(binary.LittleEndian.Uint32(data[16:]))
		}
		sh, err := DecodeBinShard(data, entry)
		if err != nil {
			return
		}
		// A payload that passed validation must be fully traversable.
		sh.WalkPatterns(func(itemset.Itemset) {})
		root := sh.RootItem()
		for _, alpha := range []float64{0, 0.5} {
			sh.QuerySub(nil, alpha, nil)
			sh.QuerySub(itemset.New(root), alpha, nil)
			sh.QueryContaining(itemset.New(root), alpha)
		}
		// Materialize re-validates every decomposition and may refuse one
		// (an edge stored in two levels); it must not panic.
		_, _ = sh.Materialize()

		// The splice copies table runs as the accepted payload addresses
		// them, so levels that share an edge run multiply it; leave the
		// payloads that would multiply it beyond reason to the table limits.
		var edges uint64
		for l := uint64(0); l < uint64(len(sh.level))/binLevelSize; l++ {
			_, _, ec := sh.levelAt(uint32(l))
			edges += uint64(ec)
		}
		if edges > 1<<20 {
			return
		}
		newRoot := &Node{Item: root, Pattern: itemset.New(root), Decomp: mined}
		var grafts []uint32
		cs, cc := sh.run(0, binNodeChildStart)
		for c := cs; c < cs+cc; c++ {
			grafts = append(grafts, sh.childAt(c))
		}
		enc, reused, err := splice{root: newRoot, prev: sh, grafts: map[*Node][]uint32{newRoot: grafts}}.encode()
		if err != nil {
			t.Fatalf("splicing an accepted payload: %v", err)
		}
		if reused != entry.Nodes-1 || enc.Entry.Nodes != entry.Nodes {
			t.Fatalf("spliced %d of %d nodes into a shard of %d", reused, entry.Nodes-1, enc.Entry.Nodes)
		}
		if _, err := enc.Open(); err != nil {
			t.Fatalf("the spliced payload is refused: %v", err)
		}
	})
}
