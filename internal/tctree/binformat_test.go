package tctree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/itemset"
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
		if e.File != binShardFileName(root.Item) {
			t.Fatalf("entry file %q, want %q", e.File, binShardFileName(root.Item))
		}
	}
}

// TestBinShardViewParity drives the BinShard and NodeView implementations of
// every ShardView method over the same query mix and requires identical
// answers — the zero-copy traversal must be observationally equal to the
// pointer-tree traversal, counters included.
func TestBinShardViewParity(t *testing.T) {
	tree, roots, bufs, entries := binShardFixtures(t, 19)
	alphas := []float64{0, 0.1, 0.25, treeMaxAlpha(tree) / 2, treeMaxAlpha(tree), treeMaxAlpha(tree) + 1}
	for i, root := range roots {
		bin, err := DecodeBinShard(bufs[i], entries[i])
		if err != nil {
			t.Fatalf("DecodeBinShard(%d): %v", root.Item, err)
		}
		view := NewNodeView(root)
		for _, q := range shardQueryPatterns(root) {
			for _, alpha := range alphas {
				assertSameShardAnswer(t, "QuerySub", bin.QuerySub(q, alpha), view.QuerySub(q, alpha))
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
		{"bad version", func(d []byte) []byte { binary.LittleEndian.PutUint32(d[8:], 2); return d }, "version"},
		{"bad end magic", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }, "end magic"},
		{"payload bit flip", func(d []byte) []byte { d[len(d)/2] ^= 0x01; return d }, "checksum"},
		{"crc flip", func(d []byte) []byte { d[len(d)-binFooterSize] ^= 0xff; return d }, "checksum"},
	}
}

// TestBinShardChecksumsDistinct pins the manifest checksum of a TCBIN shard
// to the body CRC its footer embeds. The whole-file CRC is useless here: a
// file ending in its own CRC hashes to one constant residue, so every TCBIN
// shard would share one checksum and the checksum-versioned staged-shard
// names (StageShards) would collide across generations of the same shard —
// a freshly staged file could silently overwrite one the live manifest
// still references.
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
// checksum gate and exercises the deep validators.
func reseal(d []byte) []byte {
	footerOff := len(d) - binFooterSize
	binary.LittleEndian.PutUint32(d[footerOff:], crc32.Checksum(d[:footerOff], castagnoli))
	return d
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
		{"self child", func(d []byte) []byte {
			// Point the root's first child entry back at the root.
			childOff := binary.LittleEndian.Uint64(d[56:])
			binary.LittleEndian.PutUint32(d[childOff:], 0)
			return reseal(d)
		}, "breadth-first"},
	}
}

// putRootLastThreshold overwrites the threshold of the root's last level.
func putRootLastThreshold(d []byte, alpha float64) {
	nodeOff := binary.LittleEndian.Uint64(d[48:])
	levelStart := uint64(binary.LittleEndian.Uint32(d[nodeOff+binNodeLevelStart:]))
	levelCount := uint64(binary.LittleEndian.Uint32(d[nodeOff+binNodeLevelCount:]))
	levelOff := binary.LittleEndian.Uint64(d[72:])
	binary.LittleEndian.PutUint64(d[levelOff+(levelStart+levelCount-1)*binLevelSize:], math.Float64bits(alpha))
}

// TestDecodeBinShardRejectsCorruption runs every mutation over a valid shard
// and requires a descriptive error — and no panic — from DecodeBinShard.
func TestDecodeBinShardRejectsCorruption(t *testing.T) {
	_, roots, bufs, entries := binShardFixtures(t, 19)
	// Pick the largest shard so structural mutations hit real tables.
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
	cases := binCorruptions()
	if roots[best].Children != nil {
		cases = append(cases, binStructuralCorruptions()...)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := c.mutate(append([]byte(nil), valid...))
			sh, err := DecodeBinShard(data, entry)
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
	before := view.QuerySub(q, 0)
	view.Evicted()
	assertSameShardAnswer(t, "after Evicted", view.QuerySub(q, 0), before)
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

// hostileEdgeSeeds rewrites edges of a valid shard into what DecodeBinShard
// does not look at — it validates tables, not the edges in them — and
// reseals the payload, so each seed passes validation and reaches the read
// kernel: a self-loop, one edge stored twice (in the root's first and last
// level when it has two), and an endpoint no frequency run holds.
func hostileEdgeSeeds(valid []byte) [][]byte {
	edgeOff := binary.LittleEndian.Uint64(valid[80:])
	edgeTotal := uint64(binary.LittleEndian.Uint32(valid[36:]))
	rootLevels := uint64(binary.LittleEndian.Uint32(valid[binary.LittleEndian.Uint64(valid[48:])+binNodeLevelCount:]))
	levelOff := binary.LittleEndian.Uint64(valid[72:])
	// The root's levels start the edge table: the first edge of its last
	// level is edge 0 only when it has one level, and then the copy goes to
	// another edge of that level.
	dup := uint64(binary.LittleEndian.Uint32(valid[levelOff+(rootLevels-1)*binLevelSize+8:]))
	if dup == 0 {
		dup = edgeTotal - 1
	}
	mutate := func(fn func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		fn(d)
		return reseal(d)
	}
	first := binary.LittleEndian.Uint64(valid[edgeOff:])
	return [][]byte{
		mutate(func(d []byte) { binary.LittleEndian.PutUint64(d[edgeOff:], first>>32<<32|first>>32) }),
		mutate(func(d []byte) { binary.LittleEndian.PutUint64(d[edgeOff+dup*binEdgeSize:], first) }),
		mutate(func(d []byte) { binary.LittleEndian.PutUint64(d[edgeOff:], first>>32<<32|0x7fffffff) }),
	}
}

// FuzzTCBINDecode feeds arbitrary bytes to DecodeBinShard under a manifest
// entry synthesized from the payload's own header, so fuzzing reaches the
// structural validators behind the entry cross-checks. The decoder must
// either error or return a shard whose every traversal — the read kernel
// included, which runs unchecked on whatever edges the payload holds — and
// whose Materialize run without panics or out-of-range reads, and which an
// update can take as its previous shard: spliced whole under a new root, it
// must come out as bytes DecodeBinShard accepts.
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
		truncated := append([]byte(nil), buf[:len(buf)/2]...)
		f.Add(truncated)
		flipped := append([]byte(nil), buf...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
		for _, seed := range hostileEdgeSeeds(buf) {
			f.Add(seed)
		}
		infThreshold := append([]byte(nil), buf...)
		putRootLastThreshold(infThreshold, math.Inf(1))
		f.Add(reseal(infThreshold))
	}
	f.Add([]byte{})
	f.Add([]byte("TCBIN\r\n\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entry := ShardEntry{File: "fuzz.tcbin"}
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
			sh.QuerySub(nil, alpha)
			sh.QuerySub(itemset.New(root), alpha)
			sh.QueryContaining(itemset.New(root), alpha)
		}
		// Materialize re-validates every decomposition and may refuse one
		// (an edge stored twice); it must not panic.
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
