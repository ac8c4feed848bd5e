package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/engine"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// buildTestTree builds a small TC-Tree over buildTestNetwork's network.
func buildTestTree(t *testing.T, seed int64) *tctree.Tree {
	t.Helper()
	tree := tctree.Build(buildTestNetwork(t, seed), tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		t.Fatalf("seed %d built an empty tree; pick another", seed)
	}
	return tree
}

// buildTestIndex builds buildTestTree's index in-process, as AttachBuilt
// serves it.
func buildTestIndex(t *testing.T, seed int64) *tctree.Index {
	t.Helper()
	idx, err := tctree.BuildIndex(buildTestNetwork(t, seed), tctree.BuildOptions{})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// buildTestNetwork builds a dense random database network, the same
// construction the engine tests use.
func buildTestNetwork(t *testing.T, seed int64) *dbnet.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := dbnet.New(16)
	for i := 0; i < 40; i++ {
		a, b := graph.VertexID(rng.Intn(16)), graph.VertexID(rng.Intn(16))
		if a != b {
			nw.MustAddEdge(a, b)
		}
	}
	for v := 0; v < 16; v++ {
		for i := 0; i < 1+rng.Intn(4); i++ {
			l := 1 + rng.Intn(3)
			tx := make([]itemset.Item, l)
			for j := range tx {
				tx[j] = itemset.Item(rng.Intn(5))
			}
			if err := nw.AddTransaction(graph.VertexID(v), itemset.New(tx...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nw
}

// testSeeds are the per-network tree seeds; three networks everywhere.
var testSeeds = []int64{11, 13, 7}

var testNames = []string{"bk", "gw", "aminer"}

// shardTestTree persists tree in the sharded format and opens the index.
func shardTestTree(t *testing.T, tree *tctree.Tree) *tctree.ShardedIndex {
	t.Helper()
	dir := t.TempDir()
	if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	return idx
}

// newTestFederation attaches the three test networks lazily and returns the
// federation alongside the backing trees by name.
func newTestFederation(t *testing.T, opts Options) (*Federation, map[string]*tctree.Tree) {
	t.Helper()
	f := New(opts)
	trees := make(map[string]*tctree.Tree, len(testSeeds))
	for i, seed := range testSeeds {
		tree := buildTestTree(t, seed)
		trees[testNames[i]] = tree
		if err := f.AttachIndex(testNames[i], shardTestTree(t, tree), NetworkOptions{}); err != nil {
			t.Fatalf("AttachIndex(%s): %v", testNames[i], err)
		}
	}
	return f, trees
}

// sameCommunity reports whether two records agree on every field.
func sameCommunity(a, b truss.Community) bool {
	return a.Pattern.Equal(b.Pattern) && slices.Equal(a.Vertices, b.Vertices) && a.Edges == b.Edges && a.Cohesion == b.Cohesion
}

// assertSameAnswer requires a member engine's answer to hold the communities
// of the backing tree's sequential answer — theme, vertex list and edge
// count, compared order-free (the engine's own tests pin the order) — and
// the same counters.
func assertSameAnswer(t *testing.T, network string, got *engine.Answer, want *tctree.QueryResult) {
	t.Helper()
	if got == nil {
		t.Fatalf("network %s: nil answer", network)
	}
	if got.RetrievedNodes != want.RetrievedNodes || got.VisitedNodes != want.VisitedNodes {
		t.Fatalf("network %s: retrieved/visited = %d/%d, want %d/%d",
			network, got.RetrievedNodes, got.VisitedNodes, want.RetrievedNodes, want.VisitedNodes)
	}
	var gotSet, wantSet []string
	for _, c := range got.Communities {
		gotSet = append(gotSet, fmt.Sprint(c.Pattern, c.Vertices, c.Edges))
	}
	for _, c := range want.Communities() {
		wantSet = append(wantSet, fmt.Sprint(c.Pattern, c.Vertices(), c.Edges.Len()))
	}
	sort.Strings(gotSet)
	sort.Strings(wantSet)
	if !slices.Equal(gotSet, wantSet) {
		t.Fatalf("network %s: communities\n%v\nwant\n%v", network, gotSet, wantSet)
	}
}

// TestFederatedMatchesStandalone is the parity test: a federated engine's
// per-network answers — direct or through QueryAll — must equal a standalone
// engine over the same index, for queries by alpha and by pattern.
func TestFederatedMatchesStandalone(t *testing.T) {
	f, trees := newTestFederation(t, Options{CacheSize: 32, MaxResidentShards: 4})
	alphas := []float64{0, 0.2, 0.5}
	for _, alpha := range alphas {
		results, err := f.QueryAll(context.Background(), Constant(nil), alpha)
		if err != nil {
			t.Fatalf("QueryAll(alpha=%g): %v", alpha, err)
		}
		if len(results) != len(trees) {
			t.Fatalf("QueryAll returned %d networks, want %d", len(results), len(trees))
		}
		for i := 1; i < len(results); i++ {
			if results[i-1].Network >= results[i].Network {
				t.Fatalf("QueryAll results not in ascending network order: %s before %s",
					results[i-1].Network, results[i].Network)
			}
		}
		for _, r := range results {
			assertSameAnswer(t, r.Network, r.Result, trees[r.Network].QueryByAlpha(alpha))
		}
	}
	// Per-network direct queries through the federated engine, against both
	// the backing tree and a fresh standalone engine.
	for i, name := range testNames {
		tree := trees[name]
		n, ok := f.Network(name)
		if !ok {
			t.Fatalf("network %q not attached", name)
		}
		standalone, err := engine.New(buildTestIndex(t, testSeeds[i]), engine.Options{})
		if err != nil {
			t.Fatalf("standalone engine: %v", err)
		}
		q := itemset.New(tree.Root().Children[0].Item)
		got, err := n.Engine().QueryContext(context.Background(), q, 0.1)
		if err != nil {
			t.Fatalf("federated query: %v", err)
		}
		want, err := standalone.QueryContext(context.Background(), q, 0.1)
		if err != nil {
			t.Fatalf("standalone query: %v", err)
		}
		assertSameAnswer(t, name, got, tree.Query(q, 0.1))
		if !slices.EqualFunc(got.Communities, want.Communities, sameCommunity) {
			t.Fatalf("network %s: federated answer %+v, standalone %+v", name, got.Communities, want.Communities)
		}
	}
}

// TestTopKAllDeterministicMerge checks the cross-network top-k: over three
// networks the merge is identical run to run, globally ordered by the
// engine's ranking with the network name as final tiebreak, and every entry
// comes from its own network's top k.
func TestTopKAllDeterministicMerge(t *testing.T) {
	f, _ := newTestFederation(t, Options{CacheSize: 32})
	const k = 12
	first, err := f.TopKAll(context.Background(), Constant(nil), 0, k)
	if err != nil {
		t.Fatalf("TopKAll: %v", err)
	}
	if len(first) == 0 {
		t.Fatalf("TopKAll returned nothing")
	}
	if len(first) > k {
		t.Fatalf("TopKAll returned %d communities, want ≤ %d", len(first), k)
	}
	networks := make(map[string]bool)
	for _, rc := range first {
		networks[rc.Network] = true
	}
	if len(networks) < 2 {
		t.Fatalf("top %d communities come from %d network(s); want a cross-network merge", k, len(networks))
	}
	// Global order: non-ascending under the engine ranking; equal-ranked runs
	// ordered by network name.
	for i := 1; i < len(first); i++ {
		a, b := &first[i-1], &first[i]
		if engine.LessRanked(&a.Community, &b.Community) {
			continue // strictly ordered
		}
		if engine.LessRanked(&b.Community, &a.Community) {
			t.Fatalf("merge out of order at %d", i)
		}
		if a.Network > b.Network {
			t.Fatalf("equal-ranked communities out of network order at %d: %s after %s", i, b.Network, a.Network)
		}
	}
	// Determinism: repeated runs (now cache-warm) produce the identical merge.
	for rep := 0; rep < 3; rep++ {
		again, err := f.TopKAll(context.Background(), Constant(nil), 0, k)
		if err != nil {
			t.Fatalf("TopKAll rep %d: %v", rep, err)
		}
		if len(again) != len(first) {
			t.Fatalf("rep %d returned %d communities, first run %d", rep, len(again), len(first))
		}
		for i := range first {
			if again[i].Network != first[i].Network || !sameCommunity(again[i].Community, first[i].Community) {
				t.Fatalf("rep %d differs from first run at %d", rep, i)
			}
		}
	}
	// Membership: every merged entry appears in its own network's top k.
	perNetwork := make(map[string][]truss.Community)
	for _, name := range f.Names() {
		n, _ := f.Network(name)
		_, ranked, err := n.Engine().TopKWithResultContext(context.Background(), nil, 0, k)
		if err != nil {
			t.Fatalf("TopK(%s): %v", name, err)
		}
		perNetwork[name] = ranked
	}
	for i, rc := range first {
		found := false
		for _, own := range perNetwork[rc.Network] {
			if sameCommunity(own, rc.Community) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("merged entry %d is not in network %s's own top %d", i, rc.Network, k)
		}
	}
}

// TestSharedBudgetAcrossNetworks is the eviction acceptance test: with a
// global budget of 2, hammering one hot network across all its shards can
// never push the federation-wide resident count past 2, and the other
// tenants still answer correctly afterwards.
func TestSharedBudgetAcrossNetworks(t *testing.T) {
	f, trees := newTestFederation(t, Options{MaxResidentShards: 2})
	hot := testNames[0]
	hotNet, _ := f.Network(hot)
	if hotNet.Engine().NumShards() <= 2 {
		t.Fatalf("hot network has %d shards; need more than the budget", hotNet.Engine().NumShards())
	}
	for rep := 0; rep < 3; rep++ {
		for _, c := range trees[hot].Root().Children {
			q := itemset.New(c.Item)
			got, err := hotNet.Engine().QueryContext(context.Background(), q, 0)
			if err != nil {
				t.Fatalf("hot query: %v", err)
			}
			assertSameAnswer(t, hot, got, trees[hot].Query(q, 0))
			if got := f.ResidencyGroup().Resident(); got > 2 {
				t.Fatalf("hot tenant pushed global residency to %d, budget is 2", got)
			}
		}
	}
	if evictions := f.Stats().ShardEvictions; evictions == 0 {
		t.Fatalf("hot tenant cycling %d shards under budget 2 saw no evictions", hotNet.Engine().NumShards())
	}
	// The cold tenants still answer, and the budget still holds.
	for _, name := range testNames[1:] {
		n, _ := f.Network(name)
		got, err := n.Engine().QueryContext(context.Background(), nil, 0)
		if err != nil {
			t.Fatalf("cold query(%s): %v", name, err)
		}
		assertSameAnswer(t, name, got, trees[name].QueryByAlpha(0))
		if got := f.ResidencyGroup().Resident(); got > 2 {
			t.Fatalf("global residency %d exceeds budget 2", got)
		}
	}
	stats := f.Stats()
	if stats.ResidentShards > 2 {
		t.Fatalf("federation stats report %d resident shards, budget is 2", stats.ResidentShards)
	}
	if stats.Networks != 3 || len(stats.PerNetwork) != 3 {
		t.Fatalf("stats cover %d networks (%d entries), want 3", stats.Networks, len(stats.PerNetwork))
	}
}

// TestDetachReleasesSharedResources checks attach/detach at runtime: a
// detached network's cache entries and resident shards are released, other
// tenants keep theirs, and the name becomes attachable again.
func TestDetachReleasesSharedResources(t *testing.T) {
	f, _ := newTestFederation(t, Options{CacheSize: 32, MaxResidentShards: 8})
	for _, name := range testNames {
		n, _ := f.Network(name)
		if _, err := n.Engine().QueryContext(context.Background(), nil, 0); err != nil {
			t.Fatalf("warm-up query(%s): %v", name, err)
		}
	}
	if got := f.Cache().Len(); got != 3 {
		t.Fatalf("cache holds %d entries after warm-up, want 3", got)
	}
	residentBefore := f.ResidencyGroup().Resident()
	victim := testNames[0]
	victimNet, _ := f.Network(victim)
	victimResident := victimNet.Engine().Stats().ResidentShards
	if err := f.Detach(victim); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if _, ok := f.Network(victim); ok {
		t.Fatalf("detached network still resolves")
	}
	if got := f.Cache().Len(); got != 2 {
		t.Fatalf("cache holds %d entries after detach, want 2 (victim purged)", got)
	}
	if got := f.ResidencyGroup().Resident(); got != residentBefore-victimResident {
		t.Fatalf("detach released %d resident shards, want %d", residentBefore-got, victimResident)
	}
	// Surviving tenants answer from their intact cache entries.
	survivor, _ := f.Network(testNames[1])
	hitsBefore, _, _ := f.Cache().Counters()
	if _, err := survivor.Engine().QueryContext(context.Background(), nil, 0); err != nil {
		t.Fatalf("survivor query: %v", err)
	}
	if hits, _, _ := f.Cache().Counters(); hits != hitsBefore+1 {
		t.Fatalf("survivor lost its cache entry to the detach")
	}
	// The name is reusable; detaching an unknown name fails.
	if err := f.Detach(victim); err == nil {
		t.Fatalf("double detach should fail")
	}
	built := buildTestIndex(t, testSeeds[0])
	if err := f.AttachBuilt(victim, built, NetworkOptions{}); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if err := f.AttachBuilt(victim, built, NetworkOptions{}); err == nil {
		t.Fatalf("duplicate attach should fail")
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a b", "a\x1fb"} {
		if err := f.AttachBuilt(bad, built, NetworkOptions{}); err == nil {
			t.Fatalf("name %q should be rejected", bad)
		}
	}
}

// TestDiscover writes a networks directory holding three indexes (one named
// without the .index suffix), one sibling .dbnet dictionary file and a stray
// regular file, and checks both the discovery listing and the federation
// Discover builds from it.
func TestDiscover(t *testing.T) {
	dir := t.TempDir()
	treeA, treeB, treeC := buildTestTree(t, 11), buildTestTree(t, 13), buildTestTree(t, 7)
	if _, err := treeA.WriteShardedAs(dir+"/alpha.index", tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	if _, err := treeB.WriteShardedAs(dir+"/beta.index", tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	if _, err := treeC.WriteShardedAs(dir+"/gamma", tctree.FormatTCBIN); err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	// Only index directories are networks: a leftover monolithic file of an
	// earlier release is not picked up.
	if err := os.WriteFile(dir+"/delta.tctree", []byte("gob"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// A dictionary for alpha: name every item of its universe.
	dict := itemset.NewDictionary()
	for i := 0; i < 8; i++ {
		dict.Intern(strings.Repeat("x", i+1))
	}
	if err := dbnet.WriteFileAtomic(dir+"/alpha.dbnet", dbnet.New(1), dict); err != nil {
		t.Fatalf("WriteFile(dbnet): %v", err)
	}

	discovered, err := DiscoverNetworks(dir)
	if err != nil {
		t.Fatalf("DiscoverNetworks: %v", err)
	}
	if len(discovered) != 3 {
		t.Fatalf("discovered %d networks, want 3: %+v", len(discovered), discovered)
	}
	wantNames := []string{"alpha", "beta", "gamma"}
	for i, d := range discovered {
		if d.Name != wantNames[i] {
			t.Fatalf("discovered[%d] = %q, want %q", i, d.Name, wantNames[i])
		}
	}
	if discovered[0].NetworkPath == "" || discovered[1].NetworkPath != "" {
		t.Fatalf("dictionary paths wrong: %+v", discovered)
	}

	f, err := Discover(dir, Options{CacheSize: 16, MaxResidentShards: 4})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if got := f.Names(); len(got) != 3 || got[0] != "alpha" || got[2] != "gamma" {
		t.Fatalf("federation networks = %v", got)
	}
	alphaNet, _ := f.Network("alpha")
	if !alphaNet.Engine().Lazy() || alphaNet.Dictionary() == nil {
		t.Fatalf("alpha should be lazy with a dictionary")
	}
	gammaNet, _ := f.Network("gamma")
	if !gammaNet.Engine().Lazy() || gammaNet.Dictionary() != nil {
		t.Fatalf("gamma should be lazy without a dictionary")
	}
	results, err := f.QueryAll(context.Background(), Constant(nil), 0)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	trees := map[string]*tctree.Tree{"alpha": treeA, "beta": treeB, "gamma": treeC}
	for _, r := range results {
		assertSameAnswer(t, r.Network, r.Result, trees[r.Network].QueryByAlpha(0))
	}

	// An empty directory is an error, not an empty federation.
	if _, err := DiscoverNetworks(t.TempDir()); err == nil {
		t.Fatalf("empty directory should fail discovery")
	}
}

// TestCancelledQueryAllStopsWaitingForASlot holds every netSem slot and runs
// the cross-network calls under a cancelled context: each must fail with the
// context's error at once, not wait for a slot that frees only when the test
// ends.
func TestCancelledQueryAllStopsWaitingForASlot(t *testing.T) {
	f, _ := newTestFederation(t, Options{})
	for i := 0; i < cap(f.netSem); i++ {
		f.netSem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(f.netSem); i++ {
			<-f.netSem
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, call := range map[string]func() error{
		"QueryAll": func() error { _, err := f.QueryAll(ctx, Constant(nil), 0); return err },
		"TopKAll":  func() error { _, err := f.TopKAll(ctx, Constant(nil), 0, 3); return err },
	} {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s under a cancelled context: %v, want context.Canceled", name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s under a cancelled context is still waiting for a slot after 1s", name)
		}
	}
}

// TestSafeNameAlwaysValidates holds SafeName to its two promises: a valid
// name comes back unchanged, and whatever it returns attaches.
func TestSafeNameAlwaysValidates(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"bk", "bk"},
		{"am-0.5_v2", "am-0.5_v2"},
		{"caf\xe9", "caf\xe9"}, // invalid UTF-8 is a valid name, kept byte for byte
		{"my net", "my_net"},
		{"a/b\\c\td\ne\rf", "a_b_c_d_e_f"},
		{"bell\x07del\x7f", "bell_del_"},
		{"", "_"},
		{".", "_"},
		{"..", "__"},
	} {
		got := SafeName(c.in)
		if got != c.want {
			t.Errorf("SafeName(%q) = %q, want %q", c.in, got, c.want)
		}
		if err := validateName(got); err != nil {
			t.Errorf("SafeName(%q) = %q, which does not validate: %v", c.in, got, err)
		}
	}
}
