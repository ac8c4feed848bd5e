package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"themecomm/internal/delta"
	"themecomm/internal/gen"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// bruteContaining computes the containment answer by exhaustive scan: every
// indexed pattern p ⊇ q whose truss is non-empty at alpha, as a pattern →
// communities map derived the map-based way. This is the ground truth
// QueryContainingContext must reproduce.
func bruteContaining(t *testing.T, tree *tctree.Tree, q itemset.Itemset, alpha float64) map[itemset.Key][]flatCommunity {
	t.Helper()
	out := make(map[itemset.Key][]flatCommunity)
	var walk func(n *tctree.Node)
	walk = func(n *tctree.Node) {
		superset := true
		for _, it := range q {
			if !n.Pattern.Contains(it) {
				superset = false
				break
			}
		}
		if superset && truss.LevelLive(n.Decomp.MaxAlpha(), alpha) {
			for _, comp := range n.Decomp.TrussAt(alpha).Communities() {
				out[n.Pattern.Key()] = append(out[n.Pattern.Key()],
					flatCommunity{pattern: n.Pattern.String(), vertices: fmt.Sprint(comp.Vertices()), edges: comp.Len()})
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range tree.Root().Children {
		walk(c)
	}
	return out
}

// containmentQueries is the query mix the containment tests sweep: empty,
// singletons, cross-shard pairs, full indexed patterns, and patterns with
// an item the tree does not index.
func containmentQueries(tree *tctree.Tree) []itemset.Itemset {
	items := tree.Root().Children
	qs := []itemset.Itemset{nil, {}}
	for _, c := range items {
		qs = append(qs, itemset.New(c.Item))
	}
	if len(items) >= 2 {
		qs = append(qs, itemset.New(items[0].Item, items[len(items)-1].Item))
	}
	for _, p := range tree.Patterns() {
		qs = append(qs, p)
		if p.Len() > 1 {
			qs = append(qs, p[1:]) // drop the shard root item
		}
	}
	qs = append(qs, itemset.New(997), itemset.New(items[0].Item, 997))
	return qs
}

// assertContainmentAnswer compares a QueryContainingContext result with the brute
// force map: same distinct patterns, the same communities of each. Visited
// counts are plan-dependent in containment mode and deliberately not
// compared.
func assertContainmentAnswer(t *testing.T, got *Answer, want map[itemset.Key][]flatCommunity) {
	t.Helper()
	gotSet := make(map[itemset.Key][]truss.Community)
	for _, c := range got.Communities {
		gotSet[c.Pattern.Key()] = append(gotSet[c.Pattern.Key()], c)
	}
	if len(gotSet) != len(want) {
		t.Fatalf("retrieved %d distinct patterns, want %d", len(gotSet), len(want))
	}
	for key, wantComms := range want {
		if _, ok := gotSet[key]; !ok {
			t.Fatalf("pattern %v missing from containment answer", key.Itemset())
		}
		assertCommunitiesAre(t, gotSet[key], wantComms)
	}
	if got.RetrievedNodes != len(want) {
		t.Fatalf("RetrievedNodes = %d, want %d", got.RetrievedNodes, len(want))
	}
}

// TestQueryContainingMatchesBruteForce is the containment correctness test:
// eager and lazy engines, planner on and off, must reproduce the exhaustive
// scan for every query/threshold combination.
func TestQueryContainingMatchesBruteForce(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	alphas := []float64{0, 0.1, 0.25, treeMaxAlpha(tree) / 2, treeMaxAlpha(tree), treeMaxAlpha(tree) + 1}

	engines := map[string]*Engine{}
	var err error
	if engines["eager"], err = New(testIndex(t, 11), Options{}); err != nil {
		t.Fatalf("New: %v", err)
	}
	if engines["lazy"], err = NewLazy(idx, Options{CacheSize: 32}); err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	if engines["lazy-noplan"], err = NewLazy(idx, Options{}); err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	unplanned(engines["lazy-noplan"])
	for name, eng := range engines {
		for _, q := range containmentQueries(tree) {
			for _, alpha := range alphas {
				want := bruteContaining(t, tree, q, alpha)
				got, err := eng.QueryContainingContext(context.Background(), q, alpha)
				if err != nil {
					t.Fatalf("%s: QueryContaining(%v, %v): %v", name, q, alpha, err)
				}
				assertContainmentAnswer(t, got, want)
			}
		}
	}

	// An empty containment query is the query-by-alpha workload and shares
	// its cache entry and counters with it.
	byAlpha := mustQueryByAlpha(t, engines["eager"], 0.1)
	empty, err := engines["eager"].QueryContainingContext(context.Background(), nil, 0.1)
	if err != nil {
		t.Fatalf("QueryContaining(nil): %v", err)
	}
	assertEqualAnswers(t, empty, byAlpha)
}

// TestQueryContainingCacheAndDelta checks the containment cache path: a
// repeat hits the cache with an identical answer, and an applied delta
// invalidates containment entries (they are stored as full-coverage, since
// the answer depends on shards the pattern does not name).
func TestQueryContainingCacheAndDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := randomNetwork(rng, 14, 34, 5, 3)
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		t.Skip("empty tree for this seed")
	}
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{CacheSize: 32})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}

	q := itemset.New(tree.Root().Children[0].Item)
	first, err := eng.QueryContainingContext(context.Background(), q, 0.1)
	if err != nil {
		t.Fatalf("QueryContaining: %v", err)
	}
	misses := eng.Stats().Cache.Misses
	again, err := eng.QueryContainingContext(context.Background(), q, 0.1)
	if err != nil {
		t.Fatalf("QueryContaining repeat: %v", err)
	}
	if eng.Stats().Cache.Hits == 0 || eng.Stats().Cache.Misses != misses {
		t.Fatalf("repeat containment query missed the cache: %+v", eng.Stats().Cache)
	}
	assertEqualAnswers(t, again, first)

	// The cache key is namespaced by mode: the sub-pattern query of the same
	// (q, α) must not be served the containment entry.
	sub := mustQuery(t, eng, q, 0.1)
	assertSameAnswer(t, sub, tree.Query(q, 0.1))

	d := &delta.Delta{AddTransactions: []delta.VertexTransaction{
		{Vertex: 0, Tx: itemset.New(0, 1)}, {Vertex: 1, Tx: itemset.New(0, 1)},
	}}
	applyDelta(t, eng, nw, d)
	fresh := tctree.Build(nw, tctree.BuildOptions{})
	for _, alpha := range []float64{0, 0.1, 0.3} {
		got, err := eng.QueryContainingContext(context.Background(), q, alpha)
		if err != nil {
			t.Fatalf("post-delta QueryContaining: %v", err)
		}
		assertContainmentAnswer(t, got, bruteContaining(t, fresh, q, alpha))
	}
}

// TestPlanContainingDecisions drives the pure planner in containment mode
// with a catalogue taken from a real index: out-of-range shards are absent,
// and bloom misses skip.
func TestPlanContainingDecisions(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	m := idx.Manifest()

	infos := make([]ShardInfo, len(m.Shards))
	for i, e := range m.Shards {
		bloom, err := e.DecodeBloom()
		if err != nil {
			t.Fatalf("DecodeBloom: %v", err)
		}
		if bloom == nil {
			t.Fatalf("manifest entry %d has no bloom filter", e.Item)
		}
		infos[i] = ShardInfo{
			Item: itemset.Item(e.Item), Nodes: e.Nodes, Depth: e.Depth,
			MaxAlpha: e.MaxAlpha, Bloom: bloom,
		}
	}

	// Shards with a root item greater than min(q) cannot hold a superset of
	// q: every pattern there starts above q's smallest item.
	last := infos[len(infos)-1].Item
	plan := planQuery(infos, itemset.New(last), 0, ModeContaining, false)
	for _, task := range plan.Tasks {
		if task.Item > last && task.Decision != DecisionSkipAbsent {
			t.Fatalf("shard %d > q[0]=%d: decision %q, want %q", task.Item, last, task.Decision, DecisionSkipAbsent)
		}
	}

	// An item no shard indexes: on shards whose range admits it, the bloom
	// filter must prove its absence (no false negatives ⇒ the planner may
	// only skip; with items 0..4 indexed, 997 is certainly absent).
	foreign := itemset.New(infos[0].Item, 997)
	plan = planQuery(infos, foreign, 0, ModeContaining, false)
	if plan.SkippedBloom == 0 {
		t.Fatalf("no bloom skip planning for unindexed item 997: %+v", plan)
	}
	for _, task := range plan.Tasks {
		if task.Decision == DecisionScan {
			t.Fatalf("shard %d scheduled for a query containing an unindexed item", task.Item)
		}
	}

	// A query deeper than the whole index, built from indexed items only: on
	// this corpus the bloom filter alone rules out every relevant shard, so
	// no traversal is scheduled.
	maxDepth := 0
	for _, inf := range infos {
		if inf.Depth > maxDepth {
			maxDepth = inf.Depth
		}
	}
	var deep itemset.Itemset
	for i := 0; deep.Len() < maxDepth+1; i++ {
		deep = deep.Add(itemset.Item(i))
	}
	plan = planQuery(infos, deep, 0, ModeContaining, false)
	if plan.SkippedBloom == 0 {
		t.Fatalf("no catalogue skip planning an over-deep query: %+v", plan)
	}
	if len(plan.Order) != 0 {
		t.Fatalf("over-deep query scheduled %d traversals, want 0", len(plan.Order))
	}
}

// TestLegacyManifestOpens holds the upgrade path of an index written while
// the manifest carried a per-depth α* histogram next to each bloom filter:
// the field is ignored on read — a well-formed value and one the old decoder
// refused alike — so the index answers sub-pattern and containment queries
// exactly like the untouched index, and the next checkpoint writes the
// manifest without it.
func TestLegacyManifestOpens(t *testing.T) {
	const seed, legacyField = 11, "alphaDepths"
	tree := buildTestTree(t, seed)
	_, cleanDir := writeShardedTestTree(t, tree)
	clean := lazyEngineAt(t, cleanDir)

	var qs []itemset.Itemset
	qs = append(qs, nil)
	for i := itemset.Item(0); i < 5; i++ {
		qs = append(qs, itemset.New(i), itemset.New(i, (i+1)%5))
	}
	for _, legacy := range []string{"h1:1.5,0.75,0.25", "hx:1"} {
		t.Run(legacy, func(t *testing.T) {
			_, dir := writeShardedTestTree(t, tree)
			addManifestField(t, dir, legacyField, legacy)
			eng := lazyEngineAt(t, dir)
			for _, q := range qs {
				for _, alpha := range []float64{0, 0.1, 0.25, 0.5, 1, 2} {
					for _, mode := range []QueryMode{ModeSub, ModeContaining} {
						got, err := eng.query(context.Background(), q, alpha, mode)
						if err != nil {
							t.Fatalf("%s query %v at %v: %v", mode, q, alpha, err)
						}
						want, err := clean.query(context.Background(), q, alpha, mode)
						if err != nil {
							t.Fatalf("%s query %v at %v on the clean index: %v", mode, q, alpha, err)
						}
						assertEqualAnswers(t, got, want)
					}
				}
			}

			nw := testNetwork(seed)
			if _, err := eng.ApplyDeltaInMemory(nw, touchDelta(nw, 0)); err != nil {
				t.Fatalf("ApplyDeltaInMemory: %v", err)
			}
			if report, err := eng.Checkpoint(1, nil); err != nil || report == nil {
				t.Fatalf("Checkpoint = %v, %v; want a commit", report, err)
			}
			data, err := os.ReadFile(filepath.Join(dir, tctree.ManifestName))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(data, []byte(`"`+legacyField+`"`)) {
				t.Fatalf("the checkpoint kept the legacy field:\n%s", data)
			}
		})
	}
}

// lazyEngineAt opens the index directory dir on a lazy engine.
func lazyEngineAt(t *testing.T, dir string) *Engine {
	t.Helper()
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	return eng
}

// addManifestField rewrites dir's manifest with field set to value on every
// shard entry.
func addManifestField(t *testing.T, dir, field, value string) {
	t.Helper()
	path := filepath.Join(dir, tctree.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, e := range m["shards"].([]any) {
		e.(map[string]any)[field] = value
	}
	if data, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExplainContaining checks the containment Explain surface: mode tag,
// catalogue-skip tallies, and a truss count matching QueryContainingContext.
func TestExplainContaining(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	q := itemset.New(tree.Root().Children[0].Item, 997)
	report, err := eng.ExplainContext(context.Background(), q, 0, ModeContaining)
	if err != nil {
		t.Fatalf("ExplainContext: %v", err)
	}
	if report.Mode != ModeContaining {
		t.Fatalf("report mode %q, want %q", report.Mode, ModeContaining)
	}
	if report.SkippedBloom == 0 {
		t.Fatalf("explain of a query with an unindexed item shows no bloom skips: %+v", report)
	}
	if report.RetrievedNodes != 0 {
		t.Fatalf("query containing an unindexed item retrieved %d nodes", report.RetrievedNodes)
	}
	// The catalogue skips surface in the engine counters too.
	if eng.Stats().ShardsSkippedCatalogue == 0 {
		t.Fatalf("ShardsSkippedCatalogue stayed 0 after a bloom-skipped explain")
	}

	// A sub-pattern Explain carries no mode tag and no catalogue tallies.
	subReport, err := eng.Explain(q, 0)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if subReport.Mode != "" || subReport.SkippedBloom != 0 {
		t.Fatalf("sub-pattern report carries containment fields: %+v", subReport)
	}
}

// TestLazyByteResidencyBudget checks MaxResidentBytes: loading past the byte
// budget evicts least-recently-used shards, the stats report byte residency,
// and answers are unaffected.
func TestLazyByteResidencyBudget(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)

	// Measure every shard's resident charge with an unbounded engine.
	probe, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	full := mustQueryByAlpha(t, probe, 0)
	var total int64
	for _, st := range probe.Stats().ShardResidency {
		if st.Bytes <= 0 {
			t.Fatalf("resident shard %d reports %d bytes", st.Item, st.Bytes)
		}
		total += st.Bytes
	}
	if got := probe.Stats().ResidentBytes; got != total {
		t.Fatalf("ResidentBytes = %d, want %d", got, total)
	}

	eng, err := NewLazy(idx, Options{MaxResidentBytes: total - 1})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	if eng.Stats().MaxResidentBytes != total-1 {
		t.Fatalf("MaxResidentBytes = %d, want %d", eng.Stats().MaxResidentBytes, total-1)
	}
	assertEqualAnswers(t, mustQueryByAlpha(t, eng, 0), full)
	stats := eng.Stats()
	if stats.ShardEvictions == 0 {
		t.Fatalf("no evictions under a byte budget smaller than the working set")
	}
	if stats.ResidentBytes > total-1 {
		t.Fatalf("resident bytes %d exceed the budget %d at quiescence", stats.ResidentBytes, total-1)
	}
	// The budget only bounds residency; repeated queries still answer
	// identically while reloading evicted shards.
	for i := 0; i < 3; i++ {
		assertEqualAnswers(t, mustQueryByAlpha(t, eng, 0), full)
	}
	if eng.Stats().LazyLoads <= stats.LazyLoads {
		t.Fatalf("evicted shards were not reloaded (loads %d → %d)", stats.LazyLoads, eng.Stats().LazyLoads)
	}
}

// TestFormatStat pins Stats().Format: "memory" for an engine over a tree
// built in-process, "tcbin" for one over an on-disk index.
func TestFormatStat(t *testing.T) {
	tree := buildTestTree(t, 11)
	eager, err := New(testIndex(t, 11), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := eager.Stats().Format; got != "memory" {
		t.Fatalf("eager Format = %q, want memory", got)
	}
	idx, _ := writeShardedTestTree(t, tree)
	lazy, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	if got := lazy.Stats().Format; got != tctree.FormatTCBIN {
		t.Fatalf("lazy Format = %q, want %q", got, tctree.FormatTCBIN)
	}
}

// lazyAMinerEngine serves the AMINER analogue at the given scale lazily,
// configured by opts (no result cache unless it asks for one), from an index
// directory written by BuildIndex.
func lazyAMinerEngine(tb testing.TB, scale gen.Scale, opts Options) (*Engine, itemset.Itemset) {
	tb.Helper()
	ds, err := gen.AMiner(scale)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if _, err := builtIndex(tb, ds.Network).Write(dir); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		tb.Fatalf("OpenSharded: %v", err)
	}
	eng, err := NewLazy(idx, opts)
	if err != nil {
		tb.Fatalf("NewLazy: %v", err)
	}
	return eng, ds.Network.Items()
}

// containmentMix is the containment workload the catalogue's sketches are
// judged on: n indexed patterns of length 2 and 3 less their root item, n
// random item pairs and n single items, each at α ∈ {0, 0.5, 1, 2}. The mix
// is a function of the engine's index and the fixed seed.
func containmentMix(tb testing.TB, eng *Engine, items itemset.Itemset, n int) []Request {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	var patterns []itemset.Itemset
	for _, depth := range []int{2, 3} {
		ps, err := eng.PatternsAtDepth(context.Background(), depth)
		if err != nil {
			tb.Fatal(err)
		}
		patterns = append(patterns, ps...)
	}
	var qs []itemset.Itemset
	for i := 0; i < n && len(patterns) > 0; i++ {
		qs = append(qs, patterns[rng.Intn(len(patterns))][1:])
	}
	for i := 0; i < n; i++ {
		qs = append(qs, itemset.New(items[rng.Intn(len(items))], items[rng.Intn(len(items))]))
		qs = append(qs, itemset.New(items[rng.Intn(len(items))]))
	}
	var mix []Request
	for _, alpha := range []float64{0, 0.5, 1, 2} {
		for _, q := range qs {
			mix = append(mix, Request{Pattern: q, Alpha: alpha})
		}
	}
	return mix
}

// TestContainmentSketchesSkipShards counts what the containment catalogue
// decides on the containment mix over a lazy engine without a cache: the
// plan is deterministic, so the tally is a property of the index and the
// mix, not of timing. The item bloom must rule shards out.
func TestContainmentSketchesSkipShards(t *testing.T) {
	eng, items := lazyAMinerEngine(t, 0.2, Options{})
	tally := make(map[Decision]int)
	for _, r := range containmentMix(t, eng, items, 60) {
		report, err := eng.ExplainContext(context.Background(), r.Pattern, r.Alpha, ModeContaining)
		if err != nil {
			t.Fatalf("Explain(%v, %v): %v", r.Pattern, r.Alpha, err)
		}
		for _, task := range report.Tasks {
			tally[task.Decision]++
		}
	}
	t.Logf("shard decisions over the containment mix: %v", tally)
	if tally[DecisionSkipBloom] == 0 || tally[DecisionScan] == 0 {
		t.Fatalf("the containment mix should both scan shards and skip some by the bloom: %v", tally)
	}
}

// BenchmarkContainment answers the containment mix over a lazy engine
// without a result cache on the read workloads' index, AMINER at scale 0.5;
// one op is the whole mix.
func BenchmarkContainment(b *testing.B) {
	eng, items := lazyAMinerEngine(b, 0.5, Options{})
	mix := containmentMix(b, eng, items, 100)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range mix {
			if _, err := eng.QueryContainingContext(ctx, r.Pattern, r.Alpha); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(mix)), "queries/op")
}
