package tctree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"

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
	binVersion  = 1

	binHeaderSize = 96
	binNodeSize   = 32
	binFreqSize   = 12
	binLevelSize  = 16
	binEdgeSize   = 8
	binFooterSize = 12

	// Node record field offsets (within the 32-byte record).
	binNodeItemIdx    = 0
	binNodeChildStart = 4
	binNodeChildCount = 8
	binNodeFreqStart  = 12
	binNodeFreqCount  = 16
	binNodeLevelStart = 20
	binNodeLevelCount = 24
)

var binLE = binary.LittleEndian

// BinShard is an opened TCBIN shard: validated once, then traversed in
// place. The backing bytes are a memory map on linux (released by a
// finalizer once the shard becomes unreachable — an explicit unmap could
// pull the bytes out from under a concurrent query) or a plain read of the
// file elsewhere.
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
	// mapped says data is a memory map of the shard file (OpenBinShard on
	// linux) rather than heap bytes.
	mapped bool
}

// binShardFileName is the canonical file name for the TCBIN shard of an
// item.
func binShardFileName(item itemset.Item) string {
	return fmt.Sprintf("shard-%d.tcbin", item)
}

// EncodedShard is a shard as bytes: its TCBIN payload and the manifest entry
// that describes it (File set to the item's canonical shard name). A build or
// a rebuild hands it to whoever writes, stages or serves the shard.
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
// A mined node's tables are written from its decomposition. A carried-over
// node's are copied: its frequency run and each level's edge run hold no
// position and move as bytes; what addresses another table — dictionary
// index, child run, each level's edge start — is rewritten. A node's tables
// are a function of its decomposition alone and the previous bytes came from
// this encoder, so the result is byte for byte the encoding of the fully
// mined shard. prev is read through its validated accessors only, and kept
// reachable — a finalizer releases its map — until the copy is done.
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
	var freqTotal, levelTotal, edgeTotal uint64
	for i := 0; i < len(order); i++ {
		f, before := order[i], len(order)
		dict = append(dict, f.item)
		if n := f.node; n != nil {
			freqTotal += uint64(len(n.Decomp.Freq))
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

	dictOff := uint64(binHeaderSize)
	nodeOff := dictOff + uint64(len(dict))*4
	childOff := nodeOff + nodeCount*binNodeSize
	freqOff := childOff + childTotal*4
	levelOff := freqOff + freqTotal*binFreqSize
	edgeOff := levelOff + levelTotal*binLevelSize
	footerOff := edgeOff + edgeTotal*binEdgeSize
	buf := make([]byte, footerOff+binFooterSize)

	// Header: magic, eight u32 fields from byte 8, seven u64 offsets from 40.
	copy(buf, binMagic)
	for i, v := range [...]uint64{binVersion, uint64(uint32(root.Item)), nodeCount, uint64(len(dict)), childTotal, freqTotal, levelTotal, edgeTotal} {
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
	var verts []graph.VertexID
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
			// Frequencies are stored sorted by vertex: map iteration order is
			// nondeterministic, the flat table must not be.
			verts = verts[:0]
			for v := range n.Decomp.Freq {
				verts = append(verts, v)
			}
			slices.Sort(verts)
			binLE.PutUint32(rec[binNodeFreqCount:], uint32(len(verts)))
			for _, v := range verts {
				o := freqOff + uint64(freqNext)*binFreqSize
				binLE.PutUint32(buf[o:], uint32(int32(v)))
				binLE.PutUint64(buf[o+4:], math.Float64bits(n.Decomp.Freq[v]))
				freqNext++
			}
			binLE.PutUint32(rec[binNodeLevelCount:], uint32(len(n.Decomp.Levels)))
			for _, l := range n.Decomp.Levels {
				o := levelOff + uint64(levelNext)*binLevelSize
				binLE.PutUint64(buf[o:], math.Float64bits(l.Alpha))
				binLE.PutUint32(buf[o+8:], edgeNext)
				binLE.PutUint32(buf[o+12:], uint32(len(l.Removed)))
				levelNext++
				for _, e := range l.Removed {
					binLE.PutUint64(buf[edgeOff+uint64(edgeNext)*binEdgeSize:], e.Key())
					edgeNext++
				}
			}
			maxAlpha = n.Decomp.MaxAlpha()
		} else {
			fs, fc := prev.run(f.graft, binNodeFreqStart)
			binLE.PutUint32(rec[binNodeFreqCount:], fc)
			copy(buf[freqOff+uint64(freqNext)*binFreqSize:], prev.freq[uint64(fs)*binFreqSize:uint64(fs+fc)*binFreqSize])
			freqNext += fc
			ls, lc := prev.run(f.graft, binNodeLevelStart)
			binLE.PutUint32(rec[binNodeLevelCount:], lc)
			for l := ls; l < ls+lc; l++ {
				alpha, es, ec := prev.levelAt(l)
				o := levelOff + uint64(levelNext)*binLevelSize
				binLE.PutUint64(buf[o:], math.Float64bits(alpha))
				binLE.PutUint32(buf[o+8:], edgeNext)
				binLE.PutUint32(buf[o+12:], ec)
				levelNext++
				copy(buf[edgeOff+uint64(edgeNext)*binEdgeSize:], prev.edge[uint64(es)*binEdgeSize:uint64(es+ec)*binEdgeSize])
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
	// in its own CRC hashes to a constant residue, and staged-shard names,
	// which embed the checksum to differ across generations, would collide.
	return &EncodedShard{Data: buf, Entry: ShardEntry{
		Item:     int32(root.Item),
		File:     binShardFileName(root.Item),
		Nodes:    len(order),
		Depth:    depth,
		MaxAlpha: shardAlpha,
		Checksum: fmt.Sprintf("crc32c:%08x", bodyCRC),
		Bloom:    bloom.Encode(),
	}}, reused, nil
}

// DecodeBinShard validates a TCBIN payload against its manifest entry and
// returns the in-place accessor. Every section offset, table range, child
// index and ordering invariant is checked here — hostile bytes must error,
// never panic or read out of bounds — so the traversal methods run
// unchecked afterwards. The payload is retained, not copied.
func DecodeBinShard(data []byte, entry ShardEntry) (*BinShard, error) {
	fail := func(format string, args ...any) (*BinShard, error) {
		return nil, fmt.Errorf("tctree: shard %s: "+format, append([]any{entry.File}, args...)...)
	}
	if len(data) < binHeaderSize+binFooterSize {
		return fail("file too small for a TCBIN shard (%d bytes)", len(data))
	}
	if string(data[:8]) != binMagic {
		return fail("bad magic")
	}
	if v := binLE.Uint32(data[8:]); v != binVersion {
		return fail("unsupported TCBIN version %d", v)
	}
	footerOff := binLE.Uint64(data[88:])
	if footerOff != uint64(len(data)-binFooterSize) {
		return fail("footer offset %d does not match file size %d", footerOff, len(data))
	}
	if string(data[footerOff+4:footerOff+12]) != binEndMagic {
		return fail("bad end magic")
	}
	if want, got := binLE.Uint32(data[footerOff:]), crc32.Checksum(data[:footerOff], castagnoli); want != got {
		return fail("checksum mismatch: file records crc32c:%08x, content is crc32c:%08x", want, got)
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
	expFooter := edgeOff + uint64(edgeTotal)*binEdgeSize
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
	}

	for i := uint32(1); i < dictCount; i++ {
		if int32(binLE.Uint32(b.dict[i*4:])) <= int32(binLE.Uint32(b.dict[(i-1)*4:])) {
			return fail("item dictionary not strictly ascending")
		}
	}

	seenChild := make([]bool, nodeCount)
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
		for f := fs + 1; f < fs+fc; f++ {
			if int32(binLE.Uint32(b.freq[uint64(f)*binFreqSize:])) <= int32(binLE.Uint32(b.freq[uint64(f-1)*binFreqSize:])) {
				return fail("node %d: frequency vertices not strictly ascending", i)
			}
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
		}
		item := b.itemOf(i)
		for c := cs; c < cs+cc; c++ {
			ci := binLE.Uint32(b.child[c*4:])
			if ci <= i || ci >= nodeCount {
				return fail("node %d: child index %d breaks breadth-first order", i, ci)
			}
			if seenChild[ci] {
				return fail("node %d appears as a child twice", ci)
			}
			seenChild[ci] = true
			cItem := b.itemOf(ci)
			if cItem <= item {
				return fail("node %d: child item %d breaks set-enumeration order", i, cItem)
			}
			if c > cs {
				if prev := b.itemOf(binLE.Uint32(b.child[(c-1)*4:])); cItem <= prev {
					return fail("node %d: children not ordered by item", i)
				}
			}
		}
	}
	if b.item != b.itemOf(0) {
		return fail("root item %d does not match header item %d", b.itemOf(0), rootItem)
	}
	return b, nil
}

// OpenBinShard memory-maps (or, off linux, reads) a TCBIN shard file and
// validates it against its manifest entry. The map is released by a
// finalizer once the shard becomes unreachable rather than on eviction:
// an eviction only drops the engine's reference, and an in-flight query
// may still be traversing the mapped bytes.
func OpenBinShard(path string, entry ShardEntry) (*BinShard, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("tctree: shard %s: %w", entry.File, err)
	}
	b, err := DecodeBinShard(data, entry)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	if unmap != nil {
		b.mapped = true
		runtime.SetFinalizer(b, func(*BinShard) { unmap() })
	}
	return b, nil
}

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
// vertices — C*_p(0)'s vertex set, ascending, the kernel's numbering — and
// the levels live at α_q, into the scratch buffers. It is the one copy the
// read makes of an edge, and the counterpart of Decomposition.LiveLevels on a
// pointer tree.
func (b *BinShard) liveLevels(sc *readScratch, i uint32, alphaQ float64) ([]graph.VertexID, []truss.Level) {
	fs, fc := b.run(i, binNodeFreqStart)
	run := slices.Grow(sc.run[:0], int(fc))
	for f := fs; f < fs+fc; f++ {
		run = append(run, graph.VertexID(int32(binLE.Uint32(b.freq[uint64(f)*binFreqSize:]))))
	}
	ls, lc := b.run(i, binNodeLevelStart)
	total := 0
	for l := ls; l < ls+lc; l++ {
		if alpha, _, ec := b.levelAt(l); truss.LevelLive(alpha, alphaQ) {
			total += int(ec)
		}
	}
	// Sized up front: the levels below keep slices of edges, which must not
	// move under them.
	edges, levels := slices.Grow(sc.edges[:0], total), sc.levels[:0]
	for l := ls; l < ls+lc; l++ {
		alpha, es, ec := b.levelAt(l)
		if !truss.LevelLive(alpha, alphaQ) {
			continue
		}
		start := len(edges)
		for e := es; e < es+ec; e++ {
			edges = append(edges, graph.EdgeFromKey(binLE.Uint64(b.edge[uint64(e)*binEdgeSize:])))
		}
		levels = append(levels, truss.Level{Alpha: alpha, Removed: edges[start:]})
	}
	sc.run, sc.edges, sc.levels = run, edges, levels
	return run, levels
}

func (b *BinShard) RootItem() itemset.Item { return b.item }

func (b *BinShard) SizeBytes() int64 { return int64(len(b.data)) }

// Evicted returns the pages of a mapped shard to the OS at once. The map
// itself stays — a traversal still in flight reads on, faulting pages back
// in from the file — and goes with the finalizer as before: how long that
// takes depends on how much garbage the process makes, and the memory an
// evicted shard holds in the meantime should not.
func (b *BinShard) Evicted() {
	if b.mapped {
		dropPages(b.data)
	}
}

func (b *BinShard) QuerySub(q itemset.Itemset, alphaQ float64) ShardAnswer {
	var res ShardAnswer
	res.Visited++
	if !truss.LevelLive(b.nodeMaxAlpha(0), alphaQ) {
		return res
	}
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	type frame struct {
		idx uint32
		pat itemset.Itemset
	}
	rootPat := itemset.New(b.item)
	run, live := b.liveLevels(sc, 0, alphaQ)
	res.retrieve(sc, rootPat, run, live)
	queue := []frame{{0, rootPat}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		cs, cc := b.nodeU32(f.idx, binNodeChildStart), b.nodeU32(f.idx, binNodeChildCount)
		for c := cs; c < cs+cc; c++ {
			ci := binLE.Uint32(b.child[c*4:])
			it := b.itemOf(ci)
			if !q.Contains(it) {
				continue
			}
			res.Visited++
			if !truss.LevelLive(b.nodeMaxAlpha(ci), alphaQ) {
				continue
			}
			pat := f.pat.Add(it)
			run, live := b.liveLevels(sc, ci, alphaQ)
			res.retrieve(sc, pat, run, live)
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
		run, live := b.liveLevels(sc, 0, alphaQ)
		res.retrieve(sc, rootPat, run, live)
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
			pat := f.pat.Add(it)
			if need == q.Len() {
				run, live := b.liveLevels(sc, ci, alphaQ)
				res.retrieve(sc, pat, run, live)
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
			dfs(ci, pat.Add(b.itemOf(ci)))
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
		Pattern: parentPattern.Add(item),
		Freq:    make(map[graph.VertexID]float64, fc),
	}
	for f := fs; f < fs+fc; f++ {
		o := uint64(f) * binFreqSize
		decomp.Freq[graph.VertexID(int32(binLE.Uint32(b.freq[o:])))] = math.Float64frombits(binLE.Uint64(b.freq[o+4:]))
	}
	// One allocation holds the node's edges, as Decompose leaves them: the
	// levels are consecutive runs of it.
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
		for e := es; e < es+ec; e++ {
			edges = append(edges, graph.EdgeFromKey(binLE.Uint64(b.edge[uint64(e)*binEdgeSize:])))
		}
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
