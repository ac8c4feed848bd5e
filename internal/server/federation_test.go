package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// buildFedTree builds a small TC-Tree over a dense random database network.
func buildFedTree(t *testing.T, seed int64) *tctree.Tree {
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
			tx := make([]itemset.Item, 1+rng.Intn(3))
			for j := range tx {
				tx[j] = itemset.Item(rng.Intn(5))
			}
			if err := nw.AddTransaction(graph.VertexID(v), itemset.New(tx...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		t.Fatalf("seed %d built an empty tree", seed)
	}
	return tree
}

var fedSeeds = map[string]int64{"aminer": 7, "bk": 11, "gw": 13}

// newFederatedServer builds a three-network federated server (all lazy over
// sharded indexes) and returns it with the backing trees by name.
func newFederatedServer(t *testing.T, opts federation.Options) (*Server, *federation.Federation, map[string]*tctree.Tree) {
	t.Helper()
	fed := federation.New(opts)
	trees := make(map[string]*tctree.Tree, len(fedSeeds))
	for name, seed := range fedSeeds {
		tree := buildFedTree(t, seed)
		trees[name] = tree
		dir := t.TempDir()
		if _, err := tree.WriteSharded(dir); err != nil {
			t.Fatalf("WriteSharded: %v", err)
		}
		idx, err := tctree.OpenSharded(dir)
		if err != nil {
			t.Fatalf("OpenSharded: %v", err)
		}
		if err := fed.AttachIndex(name, idx, federation.NetworkOptions{}); err != nil {
			t.Fatalf("AttachIndex(%s): %v", name, err)
		}
	}
	s, err := New(nil, Options{Federation: fed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, fed, trees
}

// micros strips the run-to-run timing fields so otherwise identical answers
// compare byte-for-byte.
var micros = regexp.MustCompile(`"(queryMicros|micros)":\d+`)

func normalize(body string) string { return micros.ReplaceAllString(body, `"$1":0`) }

// TestUnknownNetworkRoutes checks the 404 surface: unknown networks, and
// every federation route on a federation-less server.
func TestUnknownNetworkRoutes(t *testing.T) {
	fs, _, _ := newFederatedServer(t, federation.Options{CacheSize: 16})
	for _, url := range []string{
		"/api/v1/nosuch/query?alpha=0",
		"/api/v1/nosuch/explain?alpha=0",
		"/api/v1/nosuch/enginestats",
		"/api/v1/nosuch/stats",
		"/api/v1/nosuch/patterns",
		"/api/v1/nosuch/vertex?id=0",
	} {
		if rec := get(t, fs, url); rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", url, rec.Code)
		}
	}
	if rec := post(t, fs, "/api/v1/nosuch/batch", `{"queries":[{"alpha":0}]}`); rec.Code != http.StatusNotFound {
		t.Fatalf("POST batch on unknown network = %d, want 404", rec.Code)
	}

	// A single-network server answers 404 on every federation route.
	single, _ := newTestServer(t)
	for _, url := range []string{
		"/api/v1/networks",
		"/api/v1/federationstats",
		"/api/v1/queryall?alpha=0",
		"/api/v1/bk/query?alpha=0",
	} {
		if rec := get(t, single, url); rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s on a single-network server = %d, want 404", url, rec.Code)
		}
	}
}

// TestNetworksListing checks GET /api/v1/networks: every attached network
// with its index statistics, plus the default-network marker.
func TestNetworksListing(t *testing.T) {
	fs, _, trees := newFederatedServer(t, federation.Options{CacheSize: 16})
	rec := get(t, fs, "/api/v1/networks")
	if rec.Code != http.StatusOK {
		t.Fatalf("networks status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp NetworksResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Default != "aminer" {
		t.Fatalf("default network = %q, want the lexically first (aminer)", resp.Default)
	}
	if len(resp.Networks) != 3 {
		t.Fatalf("listed %d networks, want 3", len(resp.Networks))
	}
	for i, n := range resp.Networks {
		if n.Nodes != trees[n.Name].NumNodes() || !n.Lazy {
			t.Fatalf("network %q summary %+v does not match its tree", n.Name, n)
		}
		if i > 0 && resp.Networks[i-1].Name >= n.Name {
			t.Fatalf("networks not sorted: %q before %q", resp.Networks[i-1].Name, n.Name)
		}
	}
}

// TestFederatedSingleNetworkParity is the acceptance parity check: the
// answers of /api/v1/query on a standalone server, /api/v1/query on a
// federated server (default network) and /api/v1/{network}/query are
// byte-identical modulo the timing fields, for queries by alpha, by pattern
// and top-k — and likewise for explain and enginestats structure.
func TestFederatedSingleNetworkParity(t *testing.T) {
	fs, _, trees := newFederatedServer(t, federation.Options{CacheSize: 16})
	// The standalone server serves the default network's tree through its
	// own lazy engine over an identical sharded copy.
	name := "aminer"
	dir := t.TempDir()
	if _, err := trees[name].WriteSharded(dir); err != nil {
		t.Fatalf("WriteSharded: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	eng, err := engine.NewLazy(idx, engine.Options{CacheSize: 16})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	standalone, err := New(nil, Options{Engine: eng})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	item := trees[name].Root().Children[0].Item
	urls := []string{
		"/api/v1/query?alpha=0",
		"/api/v1/query?alpha=0.2",
		"/api/v1/query?alpha=0.2&k=5",
		"/api/v1/query?pattern=" + strconv.Itoa(int(item)) + "&alpha=0",
	}
	for _, url := range urls {
		want := get(t, standalone, url)
		if want.Code != http.StatusOK {
			t.Fatalf("standalone GET %s = %d: %s", url, want.Code, want.Body.String())
		}
		viaDefault := get(t, fs, url)
		if viaDefault.Code != http.StatusOK {
			t.Fatalf("federated GET %s = %d: %s", url, viaDefault.Code, viaDefault.Body.String())
		}
		if normalize(viaDefault.Body.String()) != normalize(want.Body.String()) {
			t.Fatalf("default-network answer differs from standalone for %s:\n%s\nvs\n%s",
				url, viaDefault.Body.String(), want.Body.String())
		}
		viaNetwork := get(t, fs, "/api/v1/"+name+url[len("/api/v1"):])
		if normalize(viaNetwork.Body.String()) != normalize(want.Body.String()) {
			t.Fatalf("per-network answer differs from standalone for %s:\n%s\nvs\n%s",
				url, viaNetwork.Body.String(), want.Body.String())
		}
	}

	// Explain parity: identical plans (decisions, schedule, counters) modulo
	// the timing and the network label.
	var fedExplain, aloneExplain ExplainResponse
	if err := json.Unmarshal(get(t, fs, "/api/v1/"+name+"/explain?alpha=0.1").Body.Bytes(), &fedExplain); err != nil {
		t.Fatalf("decode federated explain: %v", err)
	}
	if err := json.Unmarshal(get(t, standalone, "/api/v1/explain?alpha=0.1").Body.Bytes(), &aloneExplain); err != nil {
		t.Fatalf("decode standalone explain: %v", err)
	}
	if fedExplain.Network != name || aloneExplain.Network != "" {
		t.Fatalf("explain network labels = %q / %q", fedExplain.Network, aloneExplain.Network)
	}
	if fedExplain.Shards != aloneExplain.Shards ||
		fedExplain.SkippedAlpha != aloneExplain.SkippedAlpha ||
		fedExplain.SkippedAbsent != aloneExplain.SkippedAbsent ||
		fedExplain.TotalCost != aloneExplain.TotalCost ||
		fedExplain.RetrievedNodes != aloneExplain.RetrievedNodes ||
		fedExplain.VisitedNodes != aloneExplain.VisitedNodes {
		t.Fatalf("explain plans differ:\nfederated %+v\nstandalone %+v", fedExplain.ExplainReport, aloneExplain.ExplainReport)
	}
	if len(fedExplain.Tasks) != len(aloneExplain.Tasks) {
		t.Fatalf("explain task counts differ")
	}
	for i := range fedExplain.Tasks {
		if fedExplain.Tasks[i].Item != aloneExplain.Tasks[i].Item ||
			fedExplain.Tasks[i].Decision != aloneExplain.Tasks[i].Decision {
			t.Fatalf("explain task %d differs: %+v vs %+v", i, fedExplain.Tasks[i], aloneExplain.Tasks[i])
		}
	}

	// Enginestats parity: same index shape and worker pool; the cache is
	// marked shared on the federated engine.
	var fedStats, aloneStats engine.Stats
	if err := json.Unmarshal(get(t, fs, "/api/v1/"+name+"/enginestats").Body.Bytes(), &fedStats); err != nil {
		t.Fatalf("decode federated enginestats: %v", err)
	}
	if err := json.Unmarshal(get(t, standalone, "/api/v1/enginestats").Body.Bytes(), &aloneStats); err != nil {
		t.Fatalf("decode standalone enginestats: %v", err)
	}
	if fedStats.Shards != aloneStats.Shards || fedStats.Lazy != aloneStats.Lazy ||
		fedStats.Workers != aloneStats.Workers {
		t.Fatalf("enginestats differ:\nfederated %+v\nstandalone %+v", fedStats, aloneStats)
	}
	if !fedStats.Cache.Shared || aloneStats.Cache.Shared {
		t.Fatalf("cache shared flags = %v / %v, want true / false", fedStats.Cache.Shared, aloneStats.Cache.Shared)
	}
	if !fedStats.SharedResidency || aloneStats.SharedResidency {
		t.Fatalf("residency shared flags = %v / %v, want true / false", fedStats.SharedResidency, aloneStats.SharedResidency)
	}
	// Per-network stats route matches the single-network stats shape.
	var fedIdx, aloneIdx StatsResponse
	if err := json.Unmarshal(get(t, fs, "/api/v1/"+name+"/stats").Body.Bytes(), &fedIdx); err != nil {
		t.Fatalf("decode per-network stats: %v", err)
	}
	if err := json.Unmarshal(get(t, standalone, "/api/v1/stats").Body.Bytes(), &aloneIdx); err != nil {
		t.Fatalf("decode standalone stats: %v", err)
	}
	if fedIdx != aloneIdx {
		t.Fatalf("index stats differ: %+v vs %+v", fedIdx, aloneIdx)
	}
}

// TestQueryAllEndpoint checks the cross-network routes: per-network answers
// match each network's own route, and the top-k merge is deterministic,
// cohesion-ordered and network-annotated.
func TestQueryAllEndpoint(t *testing.T) {
	fs, fed, trees := newFederatedServer(t, federation.Options{CacheSize: 32})
	rec := get(t, fs, "/api/v1/queryall?alpha=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("queryall status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp QueryAllResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Results) != 3 || len(resp.Communities) != 0 {
		t.Fatalf("queryall returned %d results and %d merged communities, want 3 and 0",
			len(resp.Results), len(resp.Communities))
	}
	for i, nr := range resp.Results {
		if i > 0 && resp.Results[i-1].Network >= nr.Network {
			t.Fatalf("results not in network order")
		}
		if nr.RetrievedNodes != trees[nr.Network].QueryByAlpha(0).RetrievedNodes {
			t.Fatalf("network %q retrieved %d nodes, tree says %d",
				nr.Network, nr.RetrievedNodes, trees[nr.Network].QueryByAlpha(0).RetrievedNodes)
		}
	}

	// Top-k merge: deterministic across repeated calls, annotated with
	// networks, and consistent with the federation API.
	first := get(t, fs, "/api/v1/queryall?alpha=0&k=10")
	if first.Code != http.StatusOK {
		t.Fatalf("queryall k=10 status = %d: %s", first.Code, first.Body.String())
	}
	for rep := 0; rep < 2; rep++ {
		again := get(t, fs, "/api/v1/queryall?alpha=0&k=10")
		if again.Body.String() != first.Body.String() {
			t.Fatalf("cross-network top-k is not deterministic:\n%s\nvs\n%s",
				again.Body.String(), first.Body.String())
		}
	}
	var merged QueryAllResponse
	if err := json.Unmarshal(first.Body.Bytes(), &merged); err != nil {
		t.Fatalf("decode merged: %v", err)
	}
	if len(merged.Communities) == 0 || len(merged.Communities) > 10 {
		t.Fatalf("merged %d communities, want 1..10", len(merged.Communities))
	}
	networks := map[string]bool{}
	for i, c := range merged.Communities {
		if _, ok := fed.Network(c.Network); !ok {
			t.Fatalf("community %d labelled with unknown network %q", i, c.Network)
		}
		networks[c.Network] = true
		if i > 0 && merged.Communities[i-1].Cohesion < c.Cohesion {
			t.Fatalf("merge not cohesion-ordered at %d", i)
		}
	}
	if len(networks) < 2 {
		t.Fatalf("merged top-k covers %d network(s), want a cross-network merge", len(networks))
	}

	// Pattern resolution is per network: numeric ids pass through, and each
	// network answers only sub-patterns of the resolved set.
	item := trees["bk"].Root().Children[0].Item
	rec = get(t, fs, "/api/v1/queryall?alpha=0&pattern="+strconv.Itoa(int(item)))
	if rec.Code != http.StatusOK {
		t.Fatalf("pattern queryall status = %d: %s", rec.Code, rec.Body.String())
	}
	var patterned QueryAllResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &patterned); err != nil {
		t.Fatalf("decode patterned: %v", err)
	}
	for _, nr := range patterned.Results {
		want := trees[nr.Network].Query(itemset.New(item), 0)
		if nr.RetrievedNodes != want.RetrievedNodes {
			t.Fatalf("network %q pattern answer retrieved %d, tree says %d",
				nr.Network, nr.RetrievedNodes, want.RetrievedNodes)
		}
	}
}
