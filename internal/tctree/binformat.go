package tctree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sync"

	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// This file implements TCBIN, the flat binary shard format (see
// docs/FORMAT.md for the byte-level specification). A TCBIN shard is a
// single little-endian file of fixed-width tables — item dictionary, node
// records, child/frequency/level/edge tables — addressed by offsets
// instead of pointers, so an opened shard is traversed in place over a
// memory map: no decode step, no per-node allocations, and the OS page
// cache shares the bytes across processes. Every offset, count and index
// is validated once at open (after the CRC-32C footer check), so the
// traversal code reads without bounds anxiety; FuzzTCBINDecode exercises
// exactly this validation surface.

const (
	binMagic    = "TCBIN\r\n\x00"
	binEndMagic = "TCBINEND"
	binVersion  = 2

	// binFlagWide, in the header's flags, says the edge table's positions
	// are u32: some node's frequency run is longer than binNarrowRun. They
	// are u16 otherwise.
	binFlagWide  = 1
	binNarrowRun = 1 << 16

	binHeaderSize = 96
	binNodeSize   = 32
	binFreqSize   = 12
	binLevelSize  = 16
	binFooterSize = 12

	// Node record field offsets (within the 32-byte record).
	binNodeItemIdx    = 0
	binNodeChildStart = 4
	binNodeChildCount = 8
	binNodeFreqStart  = 12
	binNodeFreqCount  = 16
	binNodeLevelStart = 20
	binNodeLevelCount = 24
	// binNodeComponents holds the number of connected components of the
	// node's C*_p(0); 0 is "not recorded", what an index written before the
	// count was holds.
	binNodeComponents = 28
)

var binLE = binary.LittleEndian

// ceilingPool recycles DecodeBinShard's per-node bound table.
var ceilingPool = sync.Pool{New: func() any { return new([]float64) }}

// BinShard is an opened TCBIN shard: validated once, then traversed in
// place. The backing bytes are a memory map of the shard file on linux
// (shared by every shard its ShardFile loads from the same file generation,
// and released by a finalizer once none of them is reachable), a plain read
// of the file elsewhere, or heap bytes encoded in-process.
type BinShard struct {
	item      itemset.Item
	data      []byte
	dict      []byte
	nodes     []byte
	child     []byte
	freq      []byte
	level     []byte
	edge      []byte
	nodeCount uint32
	// wide says the edge table's positions are u32 rather than u16.
	wide bool
	// src is the file mapping data lies in, kept reachable while the shard
	// is; nil for heap bytes.
	src *mapping
}

// EncodedShard is a shard as bytes: its TCBIN payload and the manifest entry
// that describes it, File included: the shard's content name
// shard-<item>-<crc>.tcbin. A build or a rebuild hands it to whoever writes,
// stages or serves the shard.
type EncodedShard struct {
	Entry ShardEntry
	Data  []byte
}

// Open returns the payload as a heap-backed shard, validated like a file's;
// the bytes are shared, not copied.
func (s *EncodedShard) Open() (*BinShard, error) { return DecodeBinShard(s.Data, s.Entry) }

// encodeShardBinary encodes the subtree rooted at root, a shard mined in full.
func encodeShardBinary(root *Node) (*EncodedShard, error) {
	enc, _, err := splice{root: root}.encode()
	return enc, err
}

// flatNode is one node of a shard being encoded, in the layout's
// breadth-first order: a mined node, or — node is nil — the node of the
// previous shard at index graft, carried over with everything below it.
type flatNode struct {
	node     *Node
	graft    uint32
	item     itemset.Item
	depth    int
	children uint32
}

// encode flattens the shard into the TCBIN layout and computes its manifest
// entry — statistics and item bloom — over the same walk; reused counts the
// nodes carried over from s.prev.
//
// A mined node's tables are written from its decomposition: its frequency run
// sorted by vertex, each level's edges as pairs of positions into that run.
// A carried-over node's are copied: its frequency run, each level's edge run
// and its component count are node-local and move as bytes — an edge run
// re-encoded only when the new shard's position width differs from the
// previous shard's; what addresses another table — dictionary index, child
// run, each level's edge start — is rewritten. A node's tables are a function
// of its decomposition and the shard's width alone and the previous bytes
// came from this encoder, so the result is byte for byte the encoding of the
// fully mined shard — but for a count an index written before it was
// recorded holds as 0, which a carried-over node keeps. prev is read
// through its validated accessors only, and kept reachable — a finalizer
// releases its map — until the copy is done.
func (s splice) encode() (enc *EncodedShard, reused int, err error) {
	root, prev := s.root, s.prev
	if root == nil || root.Decomp == nil {
		return nil, 0, fmt.Errorf("tctree: cannot encode a nil shard")
	}
	if root.Pattern.Len() != 1 || root.Pattern[0] != root.Item {
		return nil, 0, fmt.Errorf("tctree: shard root pattern %v is not the single item %d", root.Pattern, root.Item)
	}
	// Breadth-first flatten; children keep their ascending-item order and
	// follow one another, so node k's children are a contiguous, item-sorted
	// run of indexes and the child table is simply 1, 2, …, n-1.
	order := []flatNode{{node: root, item: root.Item, depth: 1}}
	var dict []itemset.Item
	var freqTotal, levelTotal, edgeTotal, maxRun uint64
	for i := 0; i < len(order); i++ {
		f, before := order[i], len(order)
		dict = append(dict, f.item)
		if n := f.node; n != nil {
			freqTotal += uint64(len(n.Decomp.Vertices))
			maxRun = max(maxRun, uint64(len(n.Decomp.Vertices)))
			levelTotal += uint64(len(n.Decomp.Levels))
			edgeTotal += uint64(n.Decomp.NumEdges())
			mined, grafts := n.Children, s.grafts[n]
			for len(mined)+len(grafts) > 0 {
				if len(grafts) == 0 || len(mined) > 0 && mined[0].Item < prev.itemOf(grafts[0]) {
					order = append(order, flatNode{node: mined[0], item: mined[0].Item, depth: f.depth + 1})
					mined = mined[1:]
				} else {
					order = append(order, flatNode{graft: grafts[0], item: prev.itemOf(grafts[0]), depth: f.depth + 1})
					grafts = grafts[1:]
				}
			}
		} else {
			reused++
			_, fc := prev.run(f.graft, binNodeFreqStart)
			ls, lc := prev.run(f.graft, binNodeLevelStart)
			freqTotal += uint64(fc)
			maxRun = max(maxRun, uint64(fc))
			levelTotal += uint64(lc)
			for l := ls; l < ls+lc; l++ {
				_, _, ec := prev.levelAt(l)
				edgeTotal += uint64(ec)
			}
			cs, cc := prev.run(f.graft, binNodeChildStart)
			for c := cs; c < cs+cc; c++ {
				g := prev.childAt(c)
				order = append(order, flatNode{graft: g, item: prev.itemOf(g), depth: f.depth + 1})
			}
		}
		order[i].children = uint32(len(order) - before)
	}
	slices.Sort(dict)
	dict = slices.Compact(dict)
	nodeCount := uint64(len(order))
	childTotal := nodeCount - 1
	if nodeCount > math.MaxUint32 || freqTotal > math.MaxUint32 ||
		levelTotal > math.MaxUint32 || edgeTotal > math.MaxUint32 {
		return nil, 0, fmt.Errorf("tctree: shard %d exceeds the TCBIN table limits", root.Item)
	}

	wide := maxRun > binNarrowRun
	pairSize := binPairSize(wide)
	appendPairs := truss.AppendPairs[uint16]
	var flags uint64
	if wide {
		appendPairs, flags = truss.AppendPairs[uint32], binFlagWide
	}

	dictOff := uint64(binHeaderSize)
	nodeOff := dictOff + uint64(len(dict))*4
	childOff := nodeOff + nodeCount*binNodeSize
	freqOff := childOff + childTotal*4
	levelOff := freqOff + freqTotal*binFreqSize
	edgeOff := levelOff + levelTotal*binLevelSize
	footerOff := edgeOff + edgeTotal*pairSize
	buf := make([]byte, footerOff+binFooterSize)

	// Header: magic, the u16 version and u16 flags, seven u32 fields from
	// byte 12, seven u64 offsets from 40.
	copy(buf, binMagic)
	for i, v := range [...]uint64{binVersion | flags<<16, uint64(uint32(root.Item)), nodeCount, uint64(len(dict)), childTotal, freqTotal, levelTotal, edgeTotal} {
		binLE.PutUint32(buf[8+4*i:], uint32(v))
	}
	for i, off := range [...]uint64{dictOff, nodeOff, childOff, freqOff, levelOff, edgeOff, footerOff} {
		binLE.PutUint64(buf[40+8*i:], off)
	}

	for i, it := range dict {
		binLE.PutUint32(buf[dictOff+uint64(i)*4:], uint32(int32(it)))
	}
	for c := uint64(0); c < childTotal; c++ {
		binLE.PutUint32(buf[childOff+c*4:], uint32(c+1))
	}

	// The statistics; a node's α* is its last level's threshold.
	depth, shardAlpha := 0, 0.0
	var childNext, freqNext, levelNext, edgeNext uint32
	var levels [][]graph.Edge
	for i, f := range order {
		rec := buf[nodeOff+uint64(i)*binNodeSize:]
		dictIdx, _ := slices.BinarySearch(dict, f.item)
		binLE.PutUint32(rec[binNodeItemIdx:], uint32(dictIdx))
		binLE.PutUint32(rec[binNodeChildStart:], childNext)
		binLE.PutUint32(rec[binNodeChildCount:], f.children)
		childNext += f.children
		binLE.PutUint32(rec[binNodeFreqStart:], freqNext)
		binLE.PutUint32(rec[binNodeLevelStart:], levelNext)
		var maxAlpha float64
		if n := f.node; n != nil {
			// The frequency run is the decomposition's, ascending by vertex.
			verts := n.Decomp.Vertices
			binLE.PutUint32(rec[binNodeFreqCount:], uint32(len(verts)))
			for k, v := range verts {
				o := freqOff + uint64(freqNext)*binFreqSize
				binLE.PutUint32(buf[o:], uint32(int32(v)))
				binLE.PutUint64(buf[o+4:], math.Float64bits(n.Decomp.Freqs[k]))
				freqNext++
			}
			binLE.PutUint32(rec[binNodeLevelCount:], uint32(len(n.Decomp.Levels)))
			binLE.PutUint32(rec[binNodeComponents:], uint32(n.Decomp.Components))
			// The levels' edge runs follow one another in the edge table:
			// one call numbers them all, appending in place (the slice's
			// capacity is the rest of buf, sized for them).
			at := edgeOff + uint64(edgeNext)*pairSize
			levels = levels[:0]
			for _, l := range n.Decomp.Levels {
				o := levelOff + uint64(levelNext)*binLevelSize
				binLE.PutUint64(buf[o:], math.Float64bits(l.Alpha))
				binLE.PutUint32(buf[o+8:], edgeNext)
				binLE.PutUint32(buf[o+12:], uint32(len(l.Removed)))
				levelNext++
				edgeNext += uint32(len(l.Removed))
				levels = append(levels, l.Removed)
			}
			if _, err := appendPairs(buf[at:at], verts, levels...); err != nil {
				return nil, 0, fmt.Errorf("tctree: shard %d: node %v: %w", root.Item, n.Pattern, err)
			}
			maxAlpha = n.Decomp.MaxAlpha()
		} else {
			fs, fc := prev.run(f.graft, binNodeFreqStart)
			binLE.PutUint32(rec[binNodeFreqCount:], fc)
			copy(buf[freqOff+uint64(freqNext)*binFreqSize:], prev.freq[uint64(fs)*binFreqSize:uint64(fs+fc)*binFreqSize])
			freqNext += fc
			ls, lc := prev.run(f.graft, binNodeLevelStart)
			binLE.PutUint32(rec[binNodeLevelCount:], lc)
			binLE.PutUint32(rec[binNodeComponents:], prev.nodeU32(f.graft, binNodeComponents))
			for l := ls; l < ls+lc; l++ {
				alpha, es, ec := prev.levelAt(l)
				o := levelOff + uint64(levelNext)*binLevelSize
				binLE.PutUint64(buf[o:], math.Float64bits(alpha))
				binLE.PutUint32(buf[o+8:], edgeNext)
				binLE.PutUint32(buf[o+12:], ec)
				levelNext++
				repack(buf[edgeOff+uint64(edgeNext)*pairSize:], prev.pairs(es, ec), prev.wide, wide)
				edgeNext += ec
				maxAlpha = alpha
			}
		}
		depth = max(depth, f.depth)
		shardAlpha = max(shardAlpha, maxAlpha)
	}
	runtime.KeepAlive(prev)

	bodyCRC := crc32.Checksum(buf[:footerOff], castagnoli)
	binLE.PutUint32(buf[footerOff:], bodyCRC)
	copy(buf[footerOff+4:], binEndMagic)

	bloom := newItemBloom(len(dict))
	for _, it := range dict {
		bloom.add(it)
	}
	// The manifest checksum is the BODY CRC the footer embeds: a file ending
	// in its own CRC hashes to a constant residue, and the content names,
	// which embed the checksum to differ across generations, would collide.
	return &EncodedShard{Data: buf, Entry: ShardEntry{
		Item:     int32(root.Item),
		File:     fmt.Sprintf("shard-%d-%08x.%s", root.Item, bodyCRC, FormatTCBIN),
		Nodes:    len(order),
		Depth:    depth,
		MaxAlpha: shardAlpha,
		Checksum: checksumOf(bodyCRC),
		Bloom:    bloom.Encode(),
	}}, reused, nil
}

// DecodeBinShard validates a TCBIN payload against its manifest entry and
// returns the in-place accessor. Every section offset, table range, child
// index and ordering invariant is checked here — hostile bytes must error,
// never panic or read out of bounds — so the traversal methods run
// unchecked afterwards. The payload is retained, not copied.
func DecodeBinShard(data []byte, entry ShardEntry) (*BinShard, error) {
	if OnDecodeShard != nil {
		OnDecodeShard(entry)
	}
	fail := func(format string, args ...any) (*BinShard, error) {
		return nil, fmt.Errorf("tctree: shard %s: "+format, append([]any{entry.File}, args...)...)
	}
	if len(data) < binHeaderSize+binFooterSize {
		return fail("file too small for a TCBIN shard (%d bytes)", len(data))
	}
	if string(data[:8]) != binMagic {
		return fail("bad magic")
	}
	switch v := binLE.Uint16(data[8:]); v {
	case binVersion:
	case 1:
		return nil, errRebuild(entry.File, fmt.Sprintf("a TCBIN version 1 shard, which stores edges as endpoint keys; this release reads version %d", binVersion), "<index-dir>")
	default:
		return fail("unsupported TCBIN version %d", v)
	}
	flags := binLE.Uint16(data[10:])
	if flags&^binFlagWide != 0 {
		return fail("unknown header flags %#x", flags)
	}
	wide := flags&binFlagWide != 0
	footerOff := binLE.Uint64(data[88:])
	if footerOff != uint64(len(data)-binFooterSize) {
		return fail("footer offset %d does not match file size %d", footerOff, len(data))
	}
	if string(data[footerOff+4:footerOff+12]) != binEndMagic {
		return fail("bad end magic")
	}
	bodyCRC := binLE.Uint32(data[footerOff:])
	if got := crc32.Checksum(data[:footerOff], castagnoli); bodyCRC != got {
		return fail("checksum mismatch: file records crc32c:%08x, content is crc32c:%08x", bodyCRC, got)
	}

	rootItem := int32(binLE.Uint32(data[12:]))
	nodeCount := binLE.Uint32(data[16:])
	dictCount := binLE.Uint32(data[20:])
	childTotal := binLE.Uint32(data[24:])
	freqTotal := binLE.Uint32(data[28:])
	levelTotal := binLE.Uint32(data[32:])
	edgeTotal := binLE.Uint32(data[36:])
	if nodeCount < 1 {
		return fail("empty shard")
	}
	if childTotal != nodeCount-1 {
		return fail("%d child entries for %d nodes", childTotal, nodeCount)
	}
	dictOff := uint64(binHeaderSize)
	nodeOff := dictOff + uint64(dictCount)*4
	childOff := nodeOff + uint64(nodeCount)*binNodeSize
	freqOff := childOff + uint64(childTotal)*4
	levelOff := freqOff + uint64(freqTotal)*binFreqSize
	edgeOff := levelOff + uint64(levelTotal)*binLevelSize
	expFooter := edgeOff + uint64(edgeTotal)*binPairSize(wide)
	stored := [7]uint64{
		binLE.Uint64(data[40:]), binLE.Uint64(data[48:]), binLE.Uint64(data[56:]),
		binLE.Uint64(data[64:]), binLE.Uint64(data[72:]), binLE.Uint64(data[80:]), footerOff,
	}
	expect := [7]uint64{dictOff, nodeOff, childOff, freqOff, levelOff, edgeOff, expFooter}
	if stored != expect {
		return fail("section offsets do not match table counts")
	}
	if rootItem != entry.Item {
		return fail("stores item %d, manifest records item %d", rootItem, entry.Item)
	}
	if uint64(nodeCount) != uint64(entry.Nodes) {
		return fail("stores %d nodes, manifest records %d", nodeCount, entry.Nodes)
	}
	if checksum := checksumOf(bodyCRC); checksum != entry.Checksum {
		return fail("checksum mismatch: file is %s, manifest records %q", checksum, entry.Checksum)
	}

	b := &BinShard{
		item:      itemset.Item(rootItem),
		data:      data,
		dict:      data[dictOff:nodeOff],
		nodes:     data[nodeOff:childOff],
		child:     data[childOff:freqOff],
		freq:      data[freqOff:levelOff],
		level:     data[levelOff:edgeOff],
		edge:      data[edgeOff:footerOff],
		nodeCount: nodeCount,
		wide:      wide,
	}
	maxRun := uint32(0)

	for i := uint32(1); i < dictCount; i++ {
		if int32(binLE.Uint32(b.dict[i*4:])) <= int32(binLE.Uint32(b.dict[(i-1)*4:])) {
			return fail("item dictionary not strictly ascending")
		}
	}

	// ceiling[i] is NaN until a parent lists node i, then the least α* bound
	// on i's path from the root: the parent's, lowered to i's own once
	// checked against it. A ranked traversal that prunes a node trusts every
	// bound beneath it to exceed the node's by at most the tolerance
	// (truss.Floor). A node no parent lists is not reached and not checked.
	// The slice is pooled: every lazy shard load decodes.
	cp := ceilingPool.Get().(*[]float64)
	defer ceilingPool.Put(cp)
	ceiling := slices.Grow((*cp)[:0], int(nodeCount))[:nodeCount]
	*cp = ceiling
	for i := range ceiling {
		ceiling[i] = math.NaN()
	}
	for i := uint32(0); i < nodeCount; i++ {
		itemIdx := b.nodeU32(i, binNodeItemIdx)
		if itemIdx >= dictCount {
			return fail("node %d: item index %d out of dictionary range %d", i, itemIdx, dictCount)
		}
		cs, cc := b.nodeU32(i, binNodeChildStart), b.nodeU32(i, binNodeChildCount)
		if uint64(cs)+uint64(cc) > uint64(childTotal) {
			return fail("node %d: child range [%d,+%d) exceeds table size %d", i, cs, cc, childTotal)
		}
		fs, fc := b.nodeU32(i, binNodeFreqStart), b.nodeU32(i, binNodeFreqCount)
		if fc < 1 || uint64(fs)+uint64(fc) > uint64(freqTotal) {
			return fail("node %d: frequency range [%d,+%d) invalid for table size %d", i, fs, fc, freqTotal)
		}
		if !wide && fc > binNarrowRun {
			return fail("node %d: a frequency run of %d vertices needs u32 positions, the header says u16", i, fc)
		}
		// Every component holds a triangle. The count is trusted for the
		// answer (retrieve), never for memory.
		if comps := b.nodeU32(i, binNodeComponents); 3*uint64(comps) > uint64(fc) {
			return fail("node %d: %d components on a frequency run of %d vertices", i, comps, fc)
		}
		maxRun = max(maxRun, fc)
		run := b.freq[uint64(fs)*binFreqSize : uint64(fs+fc)*binFreqSize]
		for o, last := binFreqSize, int32(binLE.Uint32(run)); o < len(run); o += binFreqSize {
			v := int32(binLE.Uint32(run[o:]))
			if v <= last {
				return fail("node %d: frequency vertices not strictly ascending", i)
			}
			last = v
		}
		ls, lc := b.nodeU32(i, binNodeLevelStart), b.nodeU32(i, binNodeLevelCount)
		if lc < 1 || uint64(ls)+uint64(lc) > uint64(levelTotal) {
			return fail("node %d: level range [%d,+%d) invalid for table size %d", i, ls, lc, levelTotal)
		}
		prevAlpha := math.Inf(-1)
		for l := ls; l < ls+lc; l++ {
			alpha, es, ec := b.levelAt(l)
			if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= prevAlpha {
				return fail("node %d: level thresholds not finite and strictly ascending", i)
			}
			prevAlpha = alpha
			if ec < 1 || uint64(es)+uint64(ec) > uint64(edgeTotal) {
				return fail("node %d: edge range [%d,+%d) invalid for table size %d", i, es, ec, edgeTotal)
			}
			if !b.validPairs(es, ec, fc) {
				return fail("node %d: level %d: edges are not ascending position pairs i < j < %d", i, l-ls, fc)
			}
		}
		bound := prevAlpha
		if !math.IsNaN(ceiling[i]) {
			if !truss.BoundWithin(bound, ceiling[i]) {
				return fail("node %d: α* bound %g exceeds an ancestor's, %g, by more than the tolerance", i, bound, ceiling[i])
			}
			bound = min(bound, ceiling[i])
		}
		ceiling[i] = bound
		// Each child's item exceeds its parent's and its elder sibling's.
		last := b.itemOf(i)
		for c := cs; c < cs+cc; c++ {
			ci := binLE.Uint32(b.child[c*4:])
			if ci <= i || ci >= nodeCount {
				return fail("node %d: child index %d breaks breadth-first order", i, ci)
			}
			if !math.IsNaN(ceiling[ci]) {
				return fail("node %d appears as a child twice", ci)
			}
			ceiling[ci] = ceiling[i]
			cItem := b.itemOf(ci)
			if cItem <= last {
				return fail("node %d: child item %d breaks set-enumeration order", i, cItem)
			}
			last = cItem
		}
	}
	if wide && maxRun <= binNarrowRun {
		return fail("u32 positions on a shard whose longest frequency run, %d, fits u16", maxRun)
	}
	if b.item != b.itemOf(0) {
		return fail("root item %d does not match header item %d", b.itemOf(0), rootItem)
	}
	return b, nil
}

// OpenBinShard memory-maps (or, off linux, reads) a TCBIN shard file and
// validates it against its manifest entry: one load of a fresh ShardFile.
func OpenBinShard(path string, entry ShardEntry) (*BinShard, error) {
	return NewShardFile(path).Load(entry)
}

// ShardFile is a shard file as a serving layer holds it across evictions: its
// path and, once loaded, one mapping of the file generation the path named
// then. The mapping outlives evictions — dropping its pages is what frees the
// memory — and goes with a finalizer once neither the ShardFile nor a shard
// over it is reachable. It is safe for concurrent use.
type ShardFile struct {
	path string
	mu   sync.Mutex
	m    *mapping
}

// NewShardFile returns a ShardFile for path; nothing is read until Load.
func NewShardFile(path string) *ShardFile { return &ShardFile{path: path} }

// Load validates the file against entry — DecodeBinShard in full, checksum
// and every structural check — and returns a shard traversed in place. The
// file is mapped once per generation: Load re-uses the mapping while the path
// names the same inode at the same size, and maps the file afresh after a
// rename over the path, a truncation or an extension. An in-place write is
// seen through the kept shared mapping and caught by the validation. Where
// files are read rather than mapped, every Load reads the file.
func (f *ShardFile) Load(entry ShardEntry) (*BinShard, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.m
	if m == nil || !m.current(f.path) {
		f.m = nil
		var err error
		if m, err = mapShardFile(f.path); err != nil {
			return nil, fmt.Errorf("tctree: shard %s: %w", entry.File, err)
		}
		if OnMapShardFile != nil {
			OnMapShardFile(f.path)
		}
		if retainMappings {
			f.m = m
		}
	}
	b, err := DecodeBinShard(m.data, entry)
	if err != nil {
		// Nothing will read the pages the validation touched.
		m.dropPages()
		return nil, err
	}
	b.src = m
	return b, nil
}

// Hooks for tests, which set them before any shard loads and clear them after;
// nil otherwise. OnMapShardFile sees the path of every shard file a ShardFile
// maps (or, off linux, reads); OnDecodeShard the entry of every DecodeBinShard
// run.
var (
	OnMapShardFile func(path string)
	OnDecodeShard  func(entry ShardEntry)
)

// --- in-place accessors (all inputs validated at decode time) ---

func (b *BinShard) nodeU32(i uint32, field int) uint32 {
	return binLE.Uint32(b.nodes[int(i)*binNodeSize+field:])
}

func (b *BinShard) itemOf(i uint32) itemset.Item {
	return itemset.Item(int32(binLE.Uint32(b.dict[b.nodeU32(i, binNodeItemIdx)*4:])))
}

// run returns where node i's entries start in the child, frequency or level
// table and how many it has; field is that table's start field in the record
// (its count field follows).
func (b *BinShard) run(i uint32, field int) (start, count uint32) {
	return b.nodeU32(i, field), b.nodeU32(i, field+4)
}

// childAt returns the node index stored at position c of the child table.
func (b *BinShard) childAt(c uint32) uint32 { return binLE.Uint32(b.child[uint64(c)*4:]) }

// childWith returns node i's child for item, or noNode.
func (b *BinShard) childWith(i uint32, item itemset.Item) uint32 {
	cs, cc := b.run(i, binNodeChildStart)
	for c := cs; c < cs+cc; c++ {
		if ci := b.childAt(c); b.itemOf(ci) == item {
			return ci
		}
	}
	return noNode
}

// binPairSize is the size of one edge-table entry, an (i, j) position pair.
func binPairSize(wide bool) uint64 {
	if wide {
		return 8
	}
	return 4
}

// pairs returns the edge table's run [start, start+count) as bytes.
func (b *BinShard) pairs(start, count uint32) []byte {
	ps := binPairSize(b.wide)
	return b.edge[uint64(start)*ps : uint64(start+count)*ps]
}

// pairAt returns the k-th position pair of pairs, a run of the edge table.
func (b *BinShard) pairAt(pairs []byte, k int) (i, j uint32) {
	if b.wide {
		return binLE.Uint32(pairs[8*k:]), binLE.Uint32(pairs[8*k+4:])
	}
	return uint32(binLE.Uint16(pairs[4*k:])), uint32(binLE.Uint16(pairs[4*k+2:]))
}

// validPairs reports whether the edge table's run [start, start+count) is
// position pairs the read kernel can trust over a run of n vertices.
func (b *BinShard) validPairs(start, count, n uint32) bool {
	if b.wide {
		return truss.ValidPairs[uint32](b.pairs(start, count), n)
	}
	return truss.ValidPairs[uint16](b.pairs(start, count), n)
}

// repack writes the position pairs of src, stored at one width, to dst at
// another: a copy when the widths agree. Every position of a narrow shard
// fits u32, and a shard goes narrow only when all of its runs — so every
// position it copies — fit u16.
func repack(dst, src []byte, srcWide, dstWide bool) {
	switch {
	case srcWide == dstWide:
		copy(dst, src)
	case dstWide:
		for k := 0; 2*k < len(src); k++ {
			binLE.PutUint32(dst[4*k:], uint32(binLE.Uint16(src[2*k:])))
		}
	default:
		for k := 0; 4*k < len(src); k++ {
			binLE.PutUint16(dst[2*k:], uint16(binLE.Uint32(src[4*k:])))
		}
	}
}

func (b *BinShard) levelAt(l uint32) (alpha float64, edgeStart, edgeCount uint32) {
	o := uint64(l) * binLevelSize
	return math.Float64frombits(binLE.Uint64(b.level[o:])), binLE.Uint32(b.level[o+8:]), binLE.Uint32(b.level[o+12:])
}

// nodeMaxAlpha is the node's α* bound: levels are stored ascending, so it
// is the last level's threshold.
func (b *BinShard) nodeMaxAlpha(i uint32) float64 {
	ls, lc := b.nodeU32(i, binNodeLevelStart), b.nodeU32(i, binNodeLevelCount)
	a, _, _ := b.levelAt(ls + lc - 1)
	return a
}

// liveLevels decodes node i for the read kernel: its frequency run's
// vertices — C*_p(0)'s vertex set, ascending, the kernel's numbering — into
// the scratch, and the levels live at α_q as slices of the edge table, whose
// position pairs the kernel reads in place. whole reports that every level is
// live and the record counts one component: the node's one community at α_q
// is all of it. It is the counterpart of Decomposition.LiveLevels on a
// pointer tree.
func (b *BinShard) liveLevels(sc *readScratch, i uint32, alphaQ float64) (run []graph.VertexID, live []truss.PairLevel, whole bool) {
	fs, fc := b.run(i, binNodeFreqStart)
	run = slices.Grow(sc.run[:0], int(fc))
	for f := fs; f < fs+fc; f++ {
		run = append(run, graph.VertexID(int32(binLE.Uint32(b.freq[uint64(f)*binFreqSize:]))))
	}
	ls, lc := b.run(i, binNodeLevelStart)
	live = sc.levels[:0]
	for l := ls; l < ls+lc; l++ {
		if alpha, es, ec := b.levelAt(l); truss.LevelLive(alpha, alphaQ) {
			live = append(live, truss.PairLevel{Alpha: alpha, Pairs: b.pairs(es, ec)})
		}
	}
	sc.run, sc.levels = run, live
	return run, live, len(live) == int(lc) && b.nodeU32(i, binNodeComponents) == 1
}

// extend returns a new pattern: p with item appended. The decoder proved a
// child's item exceeds every item on its path (set-enumeration order), so
// the result is p ∪ {item} in ascending order with no search.
func extend(p itemset.Itemset, item itemset.Item) itemset.Itemset {
	out := make(itemset.Itemset, len(p)+1)
	copy(out, p)
	out[len(p)] = item
	return out
}

func (b *BinShard) RootItem() itemset.Item { return b.item }

func (b *BinShard) SizeBytes() int64 { return int64(len(b.data)) }

// Evicted returns the pages of a mapped shard to the OS at once. The map
// itself stays — a traversal still in flight reads on, faulting pages back
// in from the file, and the next load of the same file generation validates
// it again instead of mapping the file anew — so the memory an evicted shard
// holds does not wait for the garbage collector.
func (b *BinShard) Evicted() {
	if b.src != nil {
		b.src.dropPages()
	}
}

func (b *BinShard) QuerySub(q itemset.Itemset, alphaQ float64, floor *truss.Floor) ShardAnswer {
	var res ShardAnswer
	res.Visited++
	if bound := b.nodeMaxAlpha(0); !truss.LevelLive(bound, alphaQ) || floor.Prunes(bound) {
		return res
	}
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	type frame struct {
		idx uint32
		pat itemset.Itemset
	}
	rootPat := itemset.New(b.item)
	run, live, whole := b.liveLevels(sc, 0, alphaQ)
	res.retrieve(sc, rootPat, run, live, whole, b.wide, floor)
	queue := []frame{{0, rootPat}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		cs, cc := b.nodeU32(f.idx, binNodeChildStart), b.nodeU32(f.idx, binNodeChildCount)
		for c := cs; c < cs+cc; c++ {
			ci := binLE.Uint32(b.child[c*4:])
			it := b.itemOf(ci)
			if q != nil && !q.Contains(it) {
				continue
			}
			res.Visited++
			if bound := b.nodeMaxAlpha(ci); !truss.LevelLive(bound, alphaQ) || floor.Prunes(bound) {
				continue
			}
			pat := extend(f.pat, it)
			run, live, whole := b.liveLevels(sc, ci, alphaQ)
			res.retrieve(sc, pat, run, live, whole, b.wide, floor)
			queue = append(queue, frame{ci, pat})
		}
	}
	res.finish(sc)
	return res
}

func (b *BinShard) QueryContaining(q itemset.Itemset, alphaQ float64) ShardAnswer {
	var res ShardAnswer
	need0 := 0
	if need0 < q.Len() && q[need0] == b.item {
		need0++
	}
	res.Visited++
	if !truss.LevelLive(b.nodeMaxAlpha(0), alphaQ) {
		return res
	}
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	type frame struct {
		idx  uint32
		pat  itemset.Itemset
		need int
	}
	rootPat := itemset.New(b.item)
	if need0 == q.Len() {
		run, live, whole := b.liveLevels(sc, 0, alphaQ)
		res.retrieve(sc, rootPat, run, live, whole, b.wide, nil)
	}
	queue := []frame{{0, rootPat, need0}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		cs, cc := b.nodeU32(f.idx, binNodeChildStart), b.nodeU32(f.idx, binNodeChildCount)
		for c := cs; c < cs+cc; c++ {
			ci := binLE.Uint32(b.child[c*4:])
			it := b.itemOf(ci)
			need := f.need
			if need < q.Len() {
				if it > q[need] {
					continue
				}
				if it == q[need] {
					need++
				}
			}
			res.Visited++
			if !truss.LevelLive(b.nodeMaxAlpha(ci), alphaQ) {
				continue
			}
			pat := extend(f.pat, it)
			if need == q.Len() {
				run, live, whole := b.liveLevels(sc, ci, alphaQ)
				res.retrieve(sc, pat, run, live, whole, b.wide, nil)
			}
			queue = append(queue, frame{ci, pat, need})
		}
	}
	res.finish(sc)
	return res
}

func (b *BinShard) WalkPatterns(visit func(p itemset.Itemset)) {
	var dfs func(idx uint32, pat itemset.Itemset)
	dfs = func(idx uint32, pat itemset.Itemset) {
		visit(pat)
		cs, cc := b.nodeU32(idx, binNodeChildStart), b.nodeU32(idx, binNodeChildCount)
		for c := cs; c < cs+cc; c++ {
			ci := binLE.Uint32(b.child[c*4:])
			dfs(ci, extend(pat, b.itemOf(ci)))
		}
	}
	dfs(0, itemset.New(b.item))
}

// Materialize rebuilds the pointer-tree form of the shard from the bytes it
// has open: the bridge from TCBIN back to code that needs *Node (LoadTree)
// and the round-trip reference of the format's tests; no query or update
// calls it. Every decomposition is re-validated on the way.
func (b *BinShard) Materialize() (*Node, error) {
	nodes := make([]*Node, b.nodeCount)
	root, err := b.nodeAt(0, itemset.New())
	if err != nil {
		return nil, err
	}
	nodes[0] = root
	for i := uint32(0); i < b.nodeCount; i++ {
		parent := nodes[i]
		cs, cc := b.nodeU32(i, binNodeChildStart), b.nodeU32(i, binNodeChildCount)
		for c := cs; c < cs+cc; c++ {
			ci := binLE.Uint32(b.child[c*4:])
			n, err := b.nodeAt(ci, parent.Pattern)
			if err != nil {
				return nil, err
			}
			parent.addChild(n)
			nodes[ci] = n
		}
	}
	return root, nil
}

// nodeAt rebuilds node i as a *Node, given the pattern of its parent. The
// decomposition is validated and must be non-empty.
func (b *BinShard) nodeAt(i uint32, parentPattern itemset.Itemset) (*Node, error) {
	item := b.itemOf(i)
	fs, fc := b.nodeU32(i, binNodeFreqStart), b.nodeU32(i, binNodeFreqCount)
	decomp := &truss.Decomposition{
		Pattern:    extend(parentPattern, item),
		Vertices:   make([]graph.VertexID, 0, fc),
		Freqs:      make([]float64, 0, fc),
		Components: int(b.nodeU32(i, binNodeComponents)),
	}
	for f := fs; f < fs+fc; f++ {
		o := uint64(f) * binFreqSize
		decomp.Vertices = append(decomp.Vertices, graph.VertexID(int32(binLE.Uint32(b.freq[o:]))))
		decomp.Freqs = append(decomp.Freqs, math.Float64frombits(binLE.Uint64(b.freq[o+4:])))
	}
	run := decomp.Vertices
	appendEdges := truss.AppendEdges[uint16]
	if b.wide {
		appendEdges = truss.AppendEdges[uint32]
	}
	// One allocation holds the node's edges, as Decompose leaves them: the
	// levels are consecutive runs of it, their position pairs translated
	// through the run.
	ls, lc := b.nodeU32(i, binNodeLevelStart), b.nodeU32(i, binNodeLevelCount)
	total := 0
	for l := ls; l < ls+lc; l++ {
		_, _, ec := b.levelAt(l)
		total += int(ec)
	}
	edges := make([]graph.Edge, 0, total)
	decomp.Levels = make([]truss.Level, 0, lc)
	for l := ls; l < ls+lc; l++ {
		alpha, es, ec := b.levelAt(l)
		start := len(edges)
		edges = appendEdges(edges, run, b.pairs(es, ec))
		decomp.Levels = append(decomp.Levels, truss.Level{Alpha: alpha, Removed: edges[start:len(edges):len(edges)]})
	}
	if err := decomp.Validate(); err != nil {
		return nil, fmt.Errorf("tctree: shard %d: node %d: %w", b.item, i, err)
	}
	if decomp.Empty() {
		return nil, fmt.Errorf("tctree: shard %d: node %d: empty decomposition", b.item, i)
	}
	return &Node{Item: item, Pattern: decomp.Pattern, Decomp: decomp}, nil
}
