package tctree

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"themecomm/internal/durable"
	"themecomm/internal/itemset"
	"themecomm/internal/par"
)

// This file implements the on-disk index: a directory containing one TCBIN
// shard file (binformat.go, docs/FORMAT.md) per first-level subtree plus a
// JSON manifest, index.manifest, recording per-shard metadata. Because every
// pattern indexed inside a shard contains the shard's root item, a server can
// answer a query (q, α_q) after opening only the shards whose root item is in
// q — the storage layout is partitioned along the same axis queries filter
// on. Shards are individually verifiable (CRC-32C) and individually
// replaceable (StageShards + Commit swaps any batch of shard files with one
// manifest write, touching no other shard).
//
// This is the only persisted layout. An index is derived data: indexes
// written by earlier releases (monolithic .tctree files, gob shards) are not
// decoded but refused with an error naming the rebuild command.

const (
	// ManifestName is the name of the manifest file inside an index
	// directory.
	ManifestName = "index.manifest"

	// manifestVersion is also the TCBIN version of the shards the manifest
	// lists: version 2 stores edges as position pairs, and a version 1 index
	// is refused when it is opened, not at its first query.
	manifestVersion = 2

	// FormatTCBIN is the manifest's format value: the flat binary shard
	// encoding opened via mmap.
	FormatTCBIN = "tcbin"
)

// errRebuild is the refusal of everything that is not an index this release
// reads: what says what path holds instead, out where to rebuild it.
func errRebuild(path, what, out string) error {
	return fmt.Errorf("tctree: %s is %s; an index is derived data — rebuild it with: tcindex -in <network>.dbnet -out %s",
		path, what, out)
}

// castagnoli is the CRC-32C polynomial table used for shard checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumOf is the ShardEntry.Checksum of a shard whose body CRC is crc.
func checksumOf(crc uint32) string { return fmt.Sprintf("crc32c:%08x", crc) }

// validChecksum reports whether s has the form checksumOf produces.
func validChecksum(s string) bool {
	hex, ok := strings.CutPrefix(s, "crc32c:")
	return ok && len(hex) == 8 && strings.Trim(hex, "0123456789abcdef") == ""
}

// ShardEntry is the manifest metadata of one shard.
type ShardEntry struct {
	// Item is the shard's root item; every pattern indexed in the shard
	// contains it, and it is the smallest item of each such pattern.
	Item int32 `json:"item"`
	// File is the shard file name, relative to the index directory.
	File string `json:"file"`
	// Nodes is the number of TC-Tree nodes stored in the shard.
	Nodes int `json:"nodes"`
	// Depth is the longest pattern indexed in the shard.
	Depth int `json:"depth"`
	// MaxAlpha is the shard's α* bound: the largest MaxAlpha of any stored
	// decomposition. Queries with α_q ≥ MaxAlpha retrieve nothing from the
	// shard, so a serving layer may skip loading it entirely.
	MaxAlpha float64 `json:"maxAlpha"`
	// Checksum is "crc32c:" followed by eight lowercase hex digits of the
	// shard's body CRC-32C, the value the file's own footer embeds and every
	// open compares (a whole-file CRC would be the same constant residue for
	// every TCBIN file). Every shard file name embeds it
	// (shard-<item>-<crc>.tcbin), so distinct content yields distinct names.
	Checksum string `json:"checksum"`
	// Bloom is the encoded item bloom filter over the distinct items of the
	// shard's patterns (catalogue.go), empty on indexes written before the
	// catalogue existed. A query item the filter rules out cannot appear in
	// any pattern of the shard.
	Bloom string `json:"bloom,omitempty"`
}

// DecodeBloom parses the entry's item bloom filter; nil (with nil error)
// when the entry predates the catalogue.
func (e ShardEntry) DecodeBloom() (*ItemBloom, error) { return DecodeItemBloom(e.Bloom) }

// Manifest is the content of index.manifest: the shard catalogue of a sharded
// index directory, ordered by ascending root item.
type Manifest struct {
	Version int `json:"version"`
	// Format names the shard payload encoding; always FormatTCBIN. A manifest
	// carrying anything else (or nothing: the gob era) is refused.
	Format string `json:"format,omitempty"`
	// BuiltMaxDepth records the BuildOptions.MaxDepth bound the index was
	// built with (0 or absent = unbounded). Incremental maintenance refuses
	// depth-bounded indexes — re-decomposing one shard without the bound
	// would make it deeper than its untouched siblings.
	BuiltMaxDepth int `json:"builtMaxDepth,omitempty"`
	// JournalSeq is the sequence number of the last journaled delta whose
	// effects this index includes (0 or absent: no journal in use). It is the
	// checkpoint marker of the durable delta journal: on recovery, records
	// after JournalSeq are replayed from the journal onto this index.
	JournalSeq uint64       `json:"journalSeq,omitempty"`
	Shards     []ShardEntry `json:"shards"`

	// Aggregate statistics, computed once when the manifest is read or
	// written (seal) rather than re-scanning every entry per call: federation
	// discovery and stats endpoints call TotalNodes/Depth/MaxAlpha on every
	// request, which used to cost O(shards) each time.
	sealed        bool
	sumNodes      int
	maxEntryDepth int
	maxEntryAlpha float64
}

// seal computes the aggregate statistics once; callers that mutate Shards
// must reseal.
func (m *Manifest) seal() {
	m.sumNodes, m.maxEntryDepth, m.maxEntryAlpha = 0, 0, 0
	for _, e := range m.Shards {
		m.sumNodes += e.Nodes
		if e.Depth > m.maxEntryDepth {
			m.maxEntryDepth = e.Depth
		}
		if e.MaxAlpha > m.maxEntryAlpha {
			m.maxEntryAlpha = e.MaxAlpha
		}
	}
	m.sealed = true
}

// TotalNodes returns the number of indexed nodes across all shards.
func (m *Manifest) TotalNodes() int {
	if m.sealed {
		return m.sumNodes
	}
	total := 0
	for _, e := range m.Shards {
		total += e.Nodes
	}
	return total
}

// Depth returns the longest indexed pattern length across all shards.
func (m *Manifest) Depth() int {
	if m.sealed {
		return m.maxEntryDepth
	}
	depth := 0
	for _, e := range m.Shards {
		if e.Depth > depth {
			depth = e.Depth
		}
	}
	return depth
}

// MaxAlpha returns the largest α* bound across all shards.
func (m *Manifest) MaxAlpha() float64 {
	if m.sealed {
		return m.maxEntryAlpha
	}
	maxAlpha := 0.0
	for _, e := range m.Shards {
		if e.MaxAlpha > maxAlpha {
			maxAlpha = e.MaxAlpha
		}
	}
	return maxAlpha
}

// Items returns the shard root items in ascending order.
func (m *Manifest) Items() itemset.Itemset {
	items := make([]itemset.Item, 0, len(m.Shards))
	for _, e := range m.Shards {
		items = append(items, itemset.Item(e.Item))
	}
	return itemset.New(items...)
}

// sweepDir deletes the regular files of dir whose name stale accepts. Both
// callers sweep files no manifest references, so removing them can never
// lose committed data, and a failed removal only leaves a harmless leftover.
func sweepDir(dir string, stale func(name string) bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && stale(e.Name()) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// removeUnreferencedShardFiles deletes the shard-* files of dir that m does
// not name.
func removeUnreferencedShardFiles(dir string, m *Manifest) {
	live := make(map[string]bool, len(m.Shards))
	for _, e := range m.Shards {
		live[e.File] = true
	}
	sweepDir(dir, func(name string) bool { return strings.HasPrefix(name, "shard-") && !live[name] })
}

// writeFile durably replaces path with data.
func writeFile(path string, data []byte) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeShards durably writes the files of n shards inside dir, each under
// its content name (durable.WriteFile), on a pool of GOMAXPROCS workers
// (par.For); shard(i) supplies the i-th — encoding it there, for a tree
// being written, so that one shard's encoding overlaps another's fsync. Entries come back in
// shard order, independent of the schedule; the error is the first in shard
// order.
func writeShards(dir string, n int, shard func(i int) (*EncodedShard, error)) ([]ShardEntry, error) {
	entries := make([]ShardEntry, n)
	errs := make([]error, n)
	par.For(n, runtime.GOMAXPROCS(0), func(i int) {
		enc, err := shard(i)
		if err != nil {
			errs[i] = err
			return
		}
		if err := writeFile(filepath.Join(dir, enc.Entry.File), enc.Data); err != nil {
			errs[i] = fmt.Errorf("tctree: shard %d: %w", enc.Entry.Item, err)
			return
		}
		entries[i] = enc.Entry
	})
	return entries, firstError(errs)
}

// Write writes the index as an index directory: one TCBIN shard file per
// shard plus index.manifest, all inside dir (created if missing), and
// returns the written manifest. Written over an existing index it replaces
// it with one staged commit (rewrite): the old index stays whole until the
// manifest swap, and every shard file the new manifest does not name is
// removed after it. An index saved this way is opened with OpenSharded.
func (x *Index) Write(dir string) (*Manifest, error) {
	return rewrite(dir, x.BuiltMaxDepth, x.JournalSeq, len(x.Shards), func(i int) (*EncodedShard, error) { return x.Shards[i], nil })
}

// WriteShardedAs writes the tree as Write writes its index, encoding each
// shard on the writer's pool so that one shard's encoding overlaps
// another's fsync; the only format is FormatTCBIN.
func (t *Tree) WriteShardedAs(dir, format string) (*Manifest, error) {
	if format != FormatTCBIN {
		return nil, fmt.Errorf("tctree: unknown index format %q (the only format is %q)", format, FormatTCBIN)
	}
	if t == nil || t.root == nil {
		return nil, fmt.Errorf("tctree: cannot serialize a nil tree")
	}
	roots := t.root.Children
	return rewrite(dir, t.builtMaxDepth, 0, len(roots), func(i int) (*EncodedShard, error) { return encodeShardBinary(roots[i]) })
}

// rewrite replaces the index in dir by the n shards shard supplies, as a
// staged commit against the directory's current manifest, or an empty one
// when there is none this release reads: every shard is staged, every old
// item the new index lacks is marked removed, the manifest is committed with
// builtMaxDepth and journalSeq, and the sweep removes the old index's
// files. A file the current manifest names is only ever replaced by the
// bytes its content name promises, so a failure before the manifest swap
// leaves the old index intact.
func rewrite(dir string, builtMaxDepth int, journalSeq uint64, n int, shard func(i int) (*EncodedShard, error)) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	x, err := OpenSharded(dir)
	if err != nil {
		x = &ShardedIndex{dir: dir, manifest: &Manifest{}}
	}
	st, err := x.stage(n, shard)
	if err != nil {
		return nil, err
	}
	for _, it := range x.Items() {
		if _, ok := st.entries[it]; !ok {
			st.entries[it] = nil
		}
	}
	st.SetJournalSeq(journalSeq)
	st.builtMaxDepth = &builtMaxDepth
	_, err = st.Commit()
	st.Sweep()
	if err != nil {
		return nil, err
	}
	return x.manifest, nil // x is this call's own handle
}

// writeManifest durably replaces dir's manifest: write-to-temp, fsync,
// rename, then fsync the directory — a reader never observes a torn
// manifest, and the swap survives a crash (rename alone only orders the
// change, it does not persist the directory entry).
func writeManifest(dir string, m *Manifest) error {
	m.seal()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, ManifestName), append(data, '\n')); err != nil {
		return err
	}
	// A failed directory fsync is ignored: unsupported on some platforms,
	// and the rename already made the swap visible and consistent.
	_ = durable.SyncDir(dir)
	return nil
}

// ReadManifest reads and validates dir's index.manifest. Entries are returned
// sorted by ascending root item. A regular file (the monolithic layout of
// earlier releases), a manifest of any format but FormatTCBIN and a version 1
// manifest, whose shards hold endpoint keys where this release reads position
// pairs, are refused with the rebuild command; nothing of them is decoded. Fields this release
// does not know, such as the per-depth α* histogram of earlier manifests,
// are ignored, and the next manifest write drops them.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if st, serr := os.Stat(dir); serr == nil && st.Mode().IsRegular() {
			return nil, errRebuild(dir, "a file, not a "+FormatTCBIN+" index directory", strings.TrimSuffix(dir, filepath.Ext(dir))+".index")
		}
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("tctree: %s: %w", ManifestName, err)
	}
	if m.Format != FormatTCBIN {
		return nil, errRebuild(dir, fmt.Sprintf("an index of format %q, not a %s index directory", m.Format, FormatTCBIN), dir)
	}
	if m.Version == 1 {
		return nil, errRebuild(dir, fmt.Sprintf("a version 1 index, whose shards store edges as endpoint keys; this release reads version %d", manifestVersion), dir)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("tctree: %s: unsupported manifest version %d", ManifestName, m.Version)
	}
	seen := make(map[int32]bool, len(m.Shards))
	for _, e := range m.Shards {
		if e.File == "" || e.File != filepath.Base(e.File) || e.File == ManifestName {
			return nil, fmt.Errorf("tctree: %s: invalid shard file name %q", ManifestName, e.File)
		}
		if e.Nodes < 1 {
			return nil, fmt.Errorf("tctree: %s: shard %d records %d nodes", ManifestName, e.Item, e.Nodes)
		}
		if !validChecksum(e.Checksum) {
			return nil, fmt.Errorf("tctree: %s: shard %d records checksum %q, not crc32c: and 8 lowercase hex digits", ManifestName, e.Item, e.Checksum)
		}
		if seen[e.Item] {
			return nil, fmt.Errorf("tctree: %s: duplicate shard for item %d", ManifestName, e.Item)
		}
		seen[e.Item] = true
		if _, err := e.DecodeBloom(); err != nil {
			return nil, fmt.Errorf("tctree: %s: shard %d: %w", ManifestName, e.Item, err)
		}
	}
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].Item < m.Shards[j].Item })
	m.seal()
	return &m, nil
}

// IsSharded reports whether path is an index directory (it contains an
// index.manifest file).
func IsSharded(path string) bool {
	st, err := os.Stat(filepath.Join(path, ManifestName))
	return err == nil && st.Mode().IsRegular()
}

// ShardedIndex is a handle on an index directory. It holds the manifest in
// memory but no shard data: callers open shards on demand with LoadShardView
// and swap batches of them with StageShards + Commit. It is safe for
// concurrent use.
type ShardedIndex struct {
	dir string

	mu       sync.RWMutex
	manifest *Manifest
	byItem   map[itemset.Item]int
}

// OpenSharded opens an index directory written by Index.Write. Only
// the manifest is read; shard files are opened on demand. Orphaned *.tmp
// files left behind by a crashed or failed write are removed — they are
// invisible to the manifest, so the cleanup can never lose committed data.
// Shard files the manifest does not name are left to the writer's Sweep.
func OpenSharded(dir string) (*ShardedIndex, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	sweepDir(dir, func(name string) bool { return strings.HasSuffix(name, ".tmp") })
	x := &ShardedIndex{dir: dir, manifest: m, byItem: make(map[itemset.Item]int, len(m.Shards))}
	for i, e := range m.Shards {
		x.byItem[itemset.Item(e.Item)] = i
	}
	return x, nil
}

// Dir returns the index directory.
func (x *ShardedIndex) Dir() string { return x.dir }

// NumShards returns the number of shards in the manifest.
func (x *ShardedIndex) NumShards() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.manifest.Shards)
}

// Manifest returns a snapshot of the current manifest.
func (x *ShardedIndex) Manifest() Manifest {
	x.mu.RLock()
	defer x.mu.RUnlock()
	m := *x.manifest
	m.Shards = slices.Clone(m.Shards)
	m.seal()
	return m
}

// JournalSeq returns the manifest's checkpoint marker: the sequence number
// of the last journaled delta this index includes (0 = no journal in use).
func (x *ShardedIndex) JournalSeq() uint64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.manifest.JournalSeq
}

// Items returns the shard root items in ascending order.
func (x *ShardedIndex) Items() itemset.Itemset {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.manifest.Items()
}

// Entry returns the manifest entry of the shard rooted at item.
func (x *ShardedIndex) Entry(item itemset.Item) (ShardEntry, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	i, ok := x.byItem[item]
	if !ok {
		return ShardEntry{}, false
	}
	return x.manifest.Shards[i], true
}

// LoadShardView memory-maps and validates the shard rooted at item and
// returns it as a query surface traversed in place: no payload decode, no
// per-node allocation. This is the read path of serving layers.
func (x *ShardedIndex) LoadShardView(item itemset.Item) (ShardView, error) {
	b, err := x.OpenShard(item)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// OpenShard is LoadShardView returning the shard itself, which a serving
// layer also hands to RebuildScoped as the previous shard.
func (x *ShardedIndex) OpenShard(item itemset.Item) (*BinShard, error) {
	entry, ok := x.Entry(item)
	if !ok {
		return nil, fmt.Errorf("tctree: no shard for item %d", item)
	}
	return OpenBinShard(filepath.Join(x.dir, entry.File), entry)
}

// LoadTree materializes every shard and assembles the full in-memory tree.
func (x *ShardedIndex) LoadTree() (*Tree, error) {
	m := x.Manifest()
	tree := &Tree{root: &Node{Pattern: itemset.New()}, builtMaxDepth: m.BuiltMaxDepth}
	for _, e := range m.Shards {
		b, err := x.OpenShard(itemset.Item(e.Item))
		if err != nil {
			return nil, err
		}
		root, err := b.Materialize()
		if err != nil {
			return nil, err
		}
		tree.root.addChild(root)
		tree.numNodes += e.Nodes
	}
	return tree, nil
}

// CommitReport summarises one shard-swap transaction: a Commit, or the
// in-memory swap of a serving layer.
type CommitReport struct {
	// Replaced, Added and Removed list the items whose shards were swapped
	// for a rebuilt subtree, newly created, and deleted, each in ascending
	// item order. Items whose subtree was nil and had no shard are absent —
	// the commit did not touch them.
	Replaced []itemset.Item `json:"replaced,omitempty"`
	Added    []itemset.Item `json:"added,omitempty"`
	Removed  []itemset.Item `json:"removed,omitempty"`
}

// Touched returns every item the commit changed, in ascending order.
func (r *CommitReport) Touched() itemset.Itemset {
	items := make([]itemset.Item, 0, len(r.Replaced)+len(r.Added)+len(r.Removed))
	items = append(items, r.Replaced...)
	items = append(items, r.Added...)
	items = append(items, r.Removed...)
	return itemset.New(items...)
}

// StagedShards is a batch of shard swaps whose payloads are already durably
// on disk under content names the current manifest does not reference (or
// references with the very same bytes): invisible to readers until Commit
// performs the single manifest write. Staging is the expensive half (file
// writes, fsyncs) and takes no index lock: a serving layer holds its update
// lock only across Commit.
type StagedShards struct {
	x *ShardedIndex
	// entries maps each staged item to its new manifest entry, or nil for a
	// removal.
	entries map[itemset.Item]*ShardEntry
	// journalSeq, when set, is stamped into the manifest's JournalSeq by
	// Commit — atomically with the shard swap, since the manifest write IS
	// the commit point.
	journalSeq *uint64
	// builtMaxDepth, when set, replaces the manifest's BuiltMaxDepth: a
	// rewrite commits the bound of the build that replaces the index.
	builtMaxDepth *int
}

// SetJournalSeq arranges for Commit to stamp seq into the manifest's
// JournalSeq field. Checkpointers call it so "which journal records does
// this index include" advances atomically with the shard swap.
func (st *StagedShards) SetJournalSeq(seq uint64) { st.journalSeq = &seq }

// StageShards durably writes the payload of every non-nil shard as it is
// handed over (a nil one stages the item's removal), several shards at a
// time (stage).
func (x *ShardedIndex) StageShards(shards map[itemset.Item]*EncodedShard) (*StagedShards, error) {
	var payloads []*EncodedShard
	for it, enc := range shards {
		if enc == nil {
			continue
		}
		if itemset.Item(enc.Entry.Item) != it {
			return nil, fmt.Errorf("tctree: shard for item %d is rooted at item %d", it, enc.Entry.Item)
		}
		payloads = append(payloads, enc)
	}
	sort.Slice(payloads, func(i, j int) bool { return payloads[i].Entry.Item < payloads[j].Entry.Item })
	st, err := x.stage(len(payloads), func(i int) (*EncodedShard, error) { return payloads[i], nil })
	if err != nil {
		return nil, err
	}
	for it, enc := range shards {
		if enc == nil {
			st.entries[it] = nil
		}
	}
	return st, nil
}

// stage writes the n shards shard supplies (writeShards) and fsyncs the
// directory, so that no manifest can name a file a crash could still lose.
// On error it sweeps what it wrote.
func (x *ShardedIndex) stage(n int, shard func(i int) (*EncodedShard, error)) (*StagedShards, error) {
	st := &StagedShards{x: x, entries: make(map[itemset.Item]*ShardEntry, n)}
	entries, err := writeShards(x.dir, n, shard)
	if err != nil {
		st.Sweep()
		return nil, err
	}
	for i := range entries {
		st.entries[itemset.Item(entries[i].Item)] = &entries[i]
	}
	// A failed directory fsync is ignored, as writeManifest ignores it.
	_ = durable.SyncDir(x.dir)
	return st, nil
}

// Commit applies the staged batch as one transaction: the manifest is
// rewritten exactly once, which is the single switch point — a crash before
// it leaves the old index intact (plus files no manifest names, which the
// next Sweep removes), a crash after it leaves the new index complete. A
// failed Commit leaves the old index live. That write is all the file I/O
// Commit does — callers hold query-excluding locks across it: the files the
// live manifest no longer names are left for Sweep.
func (st *StagedShards) Commit() (*CommitReport, error) {
	x := st.x
	x.mu.Lock()
	defer x.mu.Unlock()

	report := &CommitReport{}
	byItem := make(map[itemset.Item]ShardEntry, len(x.manifest.Shards)+len(st.entries))
	for _, e := range x.manifest.Shards {
		byItem[itemset.Item(e.Item)] = e
	}
	items := make([]itemset.Item, 0, len(st.entries))
	for it := range st.entries {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, it := range items {
		entry := st.entries[it]
		_, exists := byItem[it]
		switch {
		case entry == nil && exists:
			delete(byItem, it)
			report.Removed = append(report.Removed, it)
		case entry == nil: // removing an absent item touches nothing
		case exists:
			byItem[it] = *entry
			report.Replaced = append(report.Replaced, it)
		default:
			byItem[it] = *entry
			report.Added = append(report.Added, it)
		}
	}
	next := *x.manifest
	next.Version, next.Format = manifestVersion, FormatTCBIN
	next.Shards = make([]ShardEntry, 0, len(byItem))
	for _, e := range byItem {
		next.Shards = append(next.Shards, e)
	}
	sort.Slice(next.Shards, func(i, j int) bool { return next.Shards[i].Item < next.Shards[j].Item })
	if st.journalSeq != nil {
		next.JournalSeq = *st.journalSeq
	}
	if st.builtMaxDepth != nil {
		next.BuiltMaxDepth = *st.builtMaxDepth
	}
	if err := writeManifest(x.dir, &next); err != nil {
		return nil, err
	}
	x.manifest = &next
	x.byItem = make(map[itemset.Item]int, len(next.Shards))
	for i, e := range next.Shards {
		x.byItem[itemset.Item(e.Item)] = i
	}
	return report, nil
}

// Sweep removes every shard-* file of the index directory the live manifest
// does not name: the files a commit superseded, the staged files of a batch
// that failed or was never committed, the files of a rewritten index. It is
// best-effort: no manifest names those files, so a leftover is harmless and
// the next Sweep clears it. Run it once the locks held across Commit are
// released.
//
// The one rule is safe because one writer owns an index directory — the
// engine's applyMu serializes its checkpoints, and Write works through a
// handle of its own — so no other batch is staging files the manifest does
// not name yet.
func (st *StagedShards) Sweep() {
	m := st.x.Manifest()
	removeUnreferencedShardFiles(st.x.dir, &m)
}
