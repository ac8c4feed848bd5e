package tctree

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/durable"
	"themecomm/internal/itemset"
)

func buildShardedTestTree(t *testing.T, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := randomNetwork(rng, 16, 40, 5, 4)
	tree := Build(nw, BuildOptions{})
	if tree.NumNodes() == 0 || len(tree.Root().Children) < 2 {
		t.Fatalf("generated tree has %d nodes and %d shards; pick another seed",
			tree.NumNodes(), len(tree.Root().Children))
	}
	return tree
}

// TestShardedRoundTrip is the manifest + shards round-trip test: the
// manifest Write returns is the one read back, its totals match the
// tree's own statistics, and LoadTree reassembles a valid tree of the same
// size.
func TestShardedRoundTrip(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	written, err := indexOf(t, tree).Write(dir)
	if err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	if len(written.Shards) != len(tree.Root().Children) {
		t.Fatalf("manifest has %d shards, tree has %d first-level subtrees",
			len(written.Shards), len(tree.Root().Children))
	}
	if !IsSharded(dir) {
		t.Fatalf("IsSharded(%s) = false after Write", dir)
	}

	// The manifest read back from disk must equal the one returned.
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if len(m.Shards) != len(written.Shards) {
		t.Fatalf("reloaded manifest has %d shards, want %d", len(m.Shards), len(written.Shards))
	}
	for i, e := range m.Shards {
		if e != written.Shards[i] {
			t.Fatalf("manifest entry %d = %+v, want %+v", i, e, written.Shards[i])
		}
	}
	if m.TotalNodes() != tree.NumNodes() {
		t.Fatalf("manifest TotalNodes = %d, tree has %d", m.TotalNodes(), tree.NumNodes())
	}
	if m.Depth() != tree.Depth() {
		t.Fatalf("manifest Depth = %d, tree has %d", m.Depth(), tree.Depth())
	}
	if !approx(m.MaxAlpha(), treeMaxAlpha(tree)) {
		t.Fatalf("manifest MaxAlpha = %v, tree has %v", m.MaxAlpha(), treeMaxAlpha(tree))
	}

	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	reloaded, err := idx.LoadTree()
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	if err := reloaded.Validate(); err != nil {
		t.Fatalf("Validate after LoadTree: %v", err)
	}
	if reloaded.NumNodes() != tree.NumNodes() {
		t.Fatalf("reloaded tree has %d nodes, want %d", reloaded.NumNodes(), tree.NumNodes())
	}
}

// TestRoundTripAnswersQueriesIdentically is the write → open → query test:
// after a Write/LoadTree round trip, the reloaded tree must answer
// every query pattern and threshold exactly like the original — same visit
// counts, same retrieval order, and truss-for-truss identical edges and
// vertex frequencies.
func TestRoundTripAnswersQueriesIdentically(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	if _, err := indexOf(t, tree).Write(dir); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	reloaded, err := idx.LoadTree()
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}

	// Query patterns: every indexed pattern, a few random supersets, an
	// unindexed pattern, and the full-universe pattern.
	queries := tree.Patterns()
	var full itemset.Itemset
	for _, c := range tree.Root().Children {
		full = full.Add(c.Item)
	}
	queries = append(queries, full, itemset.New(997, 998), full.Add(999))
	alphas := []float64{0, 0.1, 0.4, treeMaxAlpha(tree) / 2, treeMaxAlpha(tree), treeMaxAlpha(tree) + 1}
	for _, q := range queries {
		for _, alpha := range alphas {
			assertIdenticalAnswer(t, reloaded.Query(q, alpha), tree.Query(q, alpha))
		}
	}
	for _, alpha := range alphas {
		assertIdenticalAnswer(t, reloaded.QueryByAlpha(alpha), tree.QueryByAlpha(alpha))
	}
}

// assertIdenticalAnswer requires got and want to agree on everything except
// wall-clock duration.
func assertIdenticalAnswer(t *testing.T, got, want *QueryResult) {
	t.Helper()
	if got.RetrievedNodes != want.RetrievedNodes || got.VisitedNodes != want.VisitedNodes {
		t.Fatalf("reloaded tree retrieved/visited %d/%d nodes, original %d/%d",
			got.RetrievedNodes, got.VisitedNodes, want.RetrievedNodes, want.VisitedNodes)
	}
	if len(got.Trusses) != len(want.Trusses) {
		t.Fatalf("reloaded tree returned %d trusses, original %d", len(got.Trusses), len(want.Trusses))
	}
	for i := range want.Trusses {
		g, w := got.Trusses[i], want.Trusses[i]
		if !g.Pattern.Equal(w.Pattern) {
			t.Fatalf("truss %d: pattern %v, want %v (retrieval order changed)", i, g.Pattern, w.Pattern)
		}
		if !g.Edges.Equal(w.Edges) {
			t.Fatalf("truss %d (%v): edge sets differ after round trip", i, w.Pattern)
		}
		if len(g.Freq) != len(w.Freq) {
			t.Fatalf("truss %d (%v): %d vertices, want %d", i, w.Pattern, len(g.Freq), len(w.Freq))
		}
		for v, f := range w.Freq {
			if gf, ok := g.Freq[v]; !ok || !approx(gf, f) {
				t.Fatalf("truss %d (%v): vertex %d frequency %v, want %v", i, w.Pattern, v, gf, f)
			}
		}
	}
}

// corruptedFirstShard writes an index, flips one byte in the middle of its
// first shard file, and opens it.
func corruptedFirstShard(t *testing.T) (*ShardedIndex, *Manifest) {
	t.Helper()
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	m, err := indexOf(t, tree).Write(dir)
	if err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	path := filepath.Join(dir, m.Shards[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	return idx, m
}

// TestLoadShardVerifiesChecksum flips one byte of a shard file and expects
// the next load to fail with a checksum mismatch instead of decoding garbage.
func TestLoadShardVerifiesChecksum(t *testing.T) {
	idx, m := corruptedFirstShard(t)
	if _, err := idx.LoadShard(itemset.Item(m.Shards[0].Item)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("LoadShard on a corrupted file returned %v, want checksum mismatch", err)
	}
	// The other shards stay loadable.
	if len(m.Shards) > 1 {
		if _, err := idx.LoadShard(itemset.Item(m.Shards[1].Item)); err != nil {
			t.Fatalf("LoadShard of an intact shard: %v", err)
		}
	}
}

// TestLoadShardMissingFile removes a shard file: opening the index still
// works (only the manifest is read), but loading the shard — and therefore
// LoadTree — must fail.
func TestLoadShardMissingFile(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	m, err := indexOf(t, tree).Write(dir)
	if err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	entry := m.Shards[len(m.Shards)-1]
	if err := os.Remove(filepath.Join(dir, entry.File)); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded after removing a shard file: %v", err)
	}
	if _, err := idx.LoadShard(itemset.Item(entry.Item)); err == nil {
		t.Fatalf("LoadShard of a missing file should fail")
	}
	if _, err := idx.LoadTree(); err == nil {
		t.Fatalf("LoadTree with a missing shard file should fail")
	}
	if _, err := idx.LoadShard(itemset.Item(m.Shards[0].Item)); err != nil {
		t.Fatalf("LoadShard of an intact shard: %v", err)
	}
	if _, err := idx.LoadShard(9999); err == nil {
		t.Fatalf("LoadShard of an unknown item should fail")
	}
}

// TestReadManifestRejectsBadFileNames guards the path-traversal surface: a
// manifest entry may only name a file directly inside the index directory.
func TestReadManifestRejectsBadFileNames(t *testing.T) {
	dir := t.TempDir()
	manifest := `{"version":2,"format":"tcbin","shards":[{"item":1,"file":"../evil.tcbin","nodes":1,"depth":1,"maxAlpha":1,"checksum":"crc32c:00000000"}]}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(manifest), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "invalid shard file name") {
		t.Fatalf("manifest naming ../evil.tcbin returned %v, want an invalid-file-name error", err)
	}
}

// TestReadManifestRejectsBadChecksums requires every entry's checksum to be
// what the encoder writes: "crc32c:" and eight lowercase hex digits.
func TestReadManifestRejectsBadChecksums(t *testing.T) {
	dir := t.TempDir()
	for _, checksum := range []string{"", "crc32c:", "crc32c:0000000", "crc32c:000000000", "crc32c:DEADBEEF", "crc32:deadbeef", "crc32c:deadbeeg"} {
		manifest := fmt.Sprintf(`{"version":2,"format":"tcbin","shards":[{"item":1,"file":"shard-1.tcbin","nodes":1,"depth":1,"maxAlpha":1,"checksum":%q}]}`, checksum)
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(manifest), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("manifest with checksum %q returned %v, want a checksum error", checksum, err)
		}
	}
}

// FuzzReadManifest feeds hostile bytes to ReadManifest as a directory's
// index.manifest. It must never panic, and every manifest it accepts must
// keep what it promises its callers: the TCBIN format, unique shard items in
// ascending order, file names that stay inside the directory and are not the
// manifest itself, at least one node per shard, a checksum of "crc32c:" and
// eight lowercase hex digits, and a bloom filter that decodes. The seeds are a real manifest, one whose entries also carry the
// per-depth α* histogram this release no longer reads, and one of a version 1
// index, which it refuses.
func FuzzReadManifest(f *testing.F) {
	src := f.TempDir()
	if _, err := Build(dbnet.PaperExample(), BuildOptions{}).WriteShardedAs(src, FormatTCBIN); err != nil {
		f.Fatalf("WriteShardedAs: %v", err)
	}
	written, err := os.ReadFile(filepath.Join(src, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add([]byte(strings.ReplaceAll(string(written), `"bloom":`, `"alphaDepths": "h1:1.5,0.5",
      "bloom":`)))
	f.Add([]byte(`{"version":2,"format":"tcbin","shards":[{"item":2,"file":"a","nodes":1},{"item":1,"file":"b","nodes":1,"bloom":"b1:7:AAAAAAAAAAA"}]}`))
	f.Add([]byte(strings.Replace(string(written), `"version": 2`, `"version": 1`, 1)))
	f.Add([]byte(`{"version":1,"format":"gob","shards":[]}`))
	f.Add([]byte{})

	dir := f.TempDir()
	path := filepath.Join(dir, ManifestName)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		if m.Format != FormatTCBIN {
			t.Fatalf("accepted format %q", m.Format)
		}
		for i, e := range m.Shards {
			if i > 0 && e.Item <= m.Shards[i-1].Item {
				t.Fatalf("shard items %d, %d are not unique and ascending", m.Shards[i-1].Item, e.Item)
			}
			if e.File == "" || e.File != filepath.Base(e.File) || e.File == ManifestName {
				t.Fatalf("accepted shard file name %q", e.File)
			}
			if e.Nodes < 1 {
				t.Fatalf("accepted shard %d with %d nodes", e.Item, e.Nodes)
			}
			if hex, ok := strings.CutPrefix(e.Checksum, "crc32c:"); !ok || len(hex) != 8 || strings.Trim(hex, "0123456789abcdef") != "" {
				t.Fatalf("accepted shard %d with checksum %q", e.Item, e.Checksum)
			}
			if _, err := e.DecodeBloom(); err != nil {
				t.Fatalf("accepted shard %d whose bloom does not decode: %v", e.Item, err)
			}
		}
	})
}

// TestOpenRefusesLegacyIndexes pins the fail-closed migration story: an index
// written by a release that still had the gob layouts — a manifest with no
// format field or format "gob", or a monolithic .tctree file — or one whose
// manifest is version 1, its shards holding endpoint keys, is refused,
// undecoded, with an error naming the command that rebuilds it.
func TestOpenRefusesLegacyIndexes(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	dir := t.TempDir()
	if _, err := indexOf(t, tree).Write(dir); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	good, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	file := filepath.Join(t.TempDir(), "bk.tctree")
	if err := os.WriteFile(file, []byte("gob bytes of a monolithic tree"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	cases := []struct {
		name, path string
		manifest   string // rewritten into dir's manifest when non-empty
		rebuildTo  string // the -out the refusal must suggest
	}{
		{"format-absent", dir, strings.Replace(string(good), `"format": "tcbin",`, ``, 1), dir},
		{"format-gob", dir, strings.Replace(string(good), `"format": "tcbin"`, `"format": "gob"`, 1), dir},
		{"version-1", dir, strings.Replace(string(good), `"version": 2`, `"version": 1`, 1), dir},
		{"tctree-file", file, "", strings.TrimSuffix(file, ".tctree") + ".index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.manifest != "" {
				if tc.manifest == string(good) {
					t.Fatalf("fixture manifest carries no field to rewrite:\n%s", good)
				}
				if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(tc.manifest), 0o644); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
			}
			for _, open := range []func(string) error{
				func(p string) error { _, err := ReadManifest(p); return err },
				func(p string) error { _, err := OpenSharded(p); return err },
			} {
				err := open(tc.path)
				if err == nil || !strings.Contains(err.Error(), "tcindex -in") || !strings.HasSuffix(err.Error(), "-out "+tc.rebuildTo) {
					t.Fatalf("opening %s returned %v, want a refusal naming tcindex -in … -out %s", tc.name, err, tc.rebuildTo)
				}
			}
		})
	}
}

// TestCommitShardsReplaceOne swaps one shard for the same item taken from a
// tree built on a different network, and checks that (a) only that shard's
// file and manifest entry changed, and (b) the reassembled tree answers
// queries as if the subtree had been spliced in memory.
func TestCommitShardsReplaceOne(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	other := buildShardedTestTree(t, 31)

	// Find a root item present in both trees whose subtrees differ.
	var item itemset.Item
	var replacement *Node
	found := false
	for _, c := range other.Root().Children {
		if orig := tree.Root().Descendant(c.Pattern); orig != nil {
			item, replacement, found = c.Item, c, true
			break
		}
	}
	if !found {
		t.Fatalf("trees share no root item; pick other seeds")
	}

	dir := t.TempDir()
	before, err := indexOf(t, tree).Write(dir)
	if err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	report, err := commitNodes(idx, map[itemset.Item]*Node{item: replacement})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(report.Replaced) != 1 || report.Replaced[0] != item || len(report.Added)+len(report.Removed) != 0 {
		t.Fatalf("commit report %+v, want exactly item %d replaced", report, item)
	}

	// Only the replaced entry may differ, and the on-disk manifest must
	// match the in-memory one.
	after, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	snapshot := idx.Manifest()
	for i, e := range after.Shards {
		if e != snapshot.Shards[i] {
			t.Fatalf("on-disk manifest entry %d = %+v, in-memory %+v", i, e, snapshot.Shards[i])
		}
		if itemset.Item(e.Item) == item {
			if e == before.Shards[i] {
				t.Fatalf("replaced shard's manifest entry did not change")
			}
			continue
		}
		if e != before.Shards[i] {
			t.Fatalf("untouched shard %d changed: %+v -> %+v", e.Item, before.Shards[i], e)
		}
	}

	// The reassembled tree must equal the original tree with the subtree
	// spliced in: queries inside the replaced shard answer like `other`,
	// queries avoiding it answer like the original.
	spliced, err := idx.LoadTree()
	if err != nil {
		t.Fatalf("LoadTree after the commit: %v", err)
	}
	if err := spliced.Validate(); err != nil {
		t.Fatalf("Validate after the commit: %v", err)
	}
	alphas := []float64{0, 0.2, treeMaxAlpha(tree)}
	for _, alpha := range alphas {
		assertIdenticalAnswer(t, spliced.Query(itemset.New(item), alpha), other.Query(itemset.New(item), alpha))
	}
	var avoiding itemset.Itemset
	for _, c := range tree.Root().Children {
		if c.Item != item {
			avoiding = avoiding.Add(c.Item)
		}
	}
	for _, alpha := range alphas {
		assertIdenticalAnswer(t, spliced.Query(avoiding, alpha), tree.Query(avoiding, alpha))
	}
}

// shardFiles lists the shard-* files of an index directory.
func shardFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	files := make(map[string]bool)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "shard-") {
			files[e.Name()] = true
		}
	}
	return files
}

// TestCommitLeavesTheSweepToTheCaller pins the split of a staged commit:
// Commit performs the manifest write and removes no file — its callers hold
// query-excluding locks across it — and Sweep removes what the commit made
// obsolete. A sweep that never runs (a crash after the commit, a caller that
// dropped the batch) must cost nothing but disk space: the index opens, loads
// and answers, the leftovers are files no manifest names, and the next rewrite
// of the index clears them. The same holds for the staged files of a commit
// that failed.
func TestCommitLeavesTheSweepToTheCaller(t *testing.T) {
	tree := buildShardedTestTree(t, 19)
	other := buildShardedTestTree(t, 31)
	var replacement *Node
	for _, c := range other.Root().Children {
		if tree.Root().Descendant(c.Pattern) != nil {
			replacement = c
			break
		}
	}
	if replacement == nil {
		t.Fatalf("trees share no root item; pick other seeds")
	}
	var removed itemset.Item
	for _, c := range tree.Root().Children {
		if c.Item != replacement.Item {
			removed = c.Item
			break
		}
	}
	enc, err := encodeShardBinary(replacement)
	if err != nil {
		t.Fatal(err)
	}
	batch := map[itemset.Item]*EncodedShard{replacement.Item: enc, removed: nil}

	for _, outcome := range []string{"committed", "failed"} {
		for _, swept := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/swept=%v", outcome, swept), func(t *testing.T) {
				dir := t.TempDir()
				before, err := indexOf(t, tree).Write(dir)
				if err != nil {
					t.Fatalf("WriteShardedAs: %v", err)
				}
				idx, err := OpenSharded(dir)
				if err != nil {
					t.Fatalf("OpenSharded: %v", err)
				}
				staged, err := idx.StageShards(batch)
				if err != nil {
					t.Fatalf("StageShards: %v", err)
				}
				onDisk := shardFiles(t, dir)
				if outcome == "failed" {
					durable.Fault = func(name string) error {
						if name == ManifestName {
							return fmt.Errorf("injected manifest write failure")
						}
						return nil
					}
					defer func() { durable.Fault = nil }()
				}
				_, err = staged.Commit()
				durable.Fault = nil
				if (err != nil) != (outcome == "failed") {
					t.Fatalf("Commit returned %v for the %s case", err, outcome)
				}
				if after := shardFiles(t, dir); !reflect.DeepEqual(after, onDisk) {
					t.Fatalf("Commit itself changed the shard files: %v -> %v", onDisk, after)
				}
				if swept {
					staged.Sweep()
				}

				// Whatever the sweep did, the directory is a sound index.
				reopened, err := OpenSharded(dir)
				if err != nil {
					t.Fatalf("OpenSharded: %v", err)
				}
				m := reopened.Manifest()
				if outcome == "failed" && !reflect.DeepEqual(m.Shards, before.Shards) {
					t.Fatalf("a failed commit changed the manifest")
				}
				if outcome == "committed" {
					if _, ok := reopened.Entry(removed); ok || len(m.Shards) != len(before.Shards)-1 {
						t.Fatalf("the committed manifest still holds the removed shard")
					}
				}
				loaded, err := reopened.LoadTree()
				if err != nil {
					t.Fatalf("LoadTree: %v", err)
				}
				want := tree
				if outcome == "committed" {
					want = other
				}
				q := itemset.New(replacement.Item)
				assertIdenticalAnswer(t, loaded.Query(q, 0), want.Query(q, 0))

				// Leftovers are exactly what a skipped sweep leaves, no
				// manifest names them, and a rewrite clears them.
				referenced := make(map[string]bool)
				for _, e := range m.Shards {
					referenced[e.File] = true
				}
				files := shardFiles(t, dir)
				if swept && !reflect.DeepEqual(files, referenced) {
					t.Fatalf("after the sweep the directory holds %v, the manifest names %v", files, referenced)
				}
				if !swept && len(files) <= len(referenced) {
					t.Fatalf("a skipped sweep left nothing behind: %v", files)
				}
				removeUnreferencedShardFiles(dir, &m)
				if files := shardFiles(t, dir); !reflect.DeepEqual(files, referenced) {
					t.Fatalf("the cleanup left %v, the manifest names %v", files, referenced)
				}
				if _, err := reopened.LoadTree(); err != nil {
					t.Fatalf("LoadTree after the cleanup: %v", err)
				}
			})
		}
	}
}
