package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// buildFedTree builds a small TC-Tree over fedNetwork(t, seed).
func buildFedTree(t *testing.T, seed int64) *tctree.Tree {
	t.Helper()
	tree := tctree.Build(fedNetwork(t, seed), tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		t.Fatalf("seed %d built an empty tree", seed)
	}
	return tree
}

// buildFedIndex builds buildFedTree's index in-process.
func buildFedIndex(t *testing.T, seed int64) *tctree.Index {
	t.Helper()
	return builtIndex(t, fedNetwork(t, seed), tctree.BuildOptions{})
}

// fedNetwork builds a dense random database network.
func fedNetwork(t *testing.T, seed int64) *dbnet.Network {
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
	return nw
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
		if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
			t.Fatalf("WriteShardedAs: %v", err)
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

// normalize zeroes the timing fields, and drops an explain task's, which a
// task that took under a microsecond omits (the report's own micros ends
// its object, so no comma follows it).
func normalize(body string) string {
	return strings.ReplaceAll(micros.ReplaceAllString(body, `"$1":0`), `"micros":0,`, "")
}

// TestUnknownNetworkRoutes checks the 404 surface of unknown networks.
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

// TestFederatedSingleNetworkParity: the bare routes answer for the default
// network, so /api/v1/query and /api/v1/{default}/query are byte-identical
// modulo the timing fields — for queries by alpha, by pattern and top-k,
// explain and stats — and the bare enginestats are the member's.
func TestFederatedSingleNetworkParity(t *testing.T) {
	fs, _, trees := newFederatedServer(t, federation.Options{CacheSize: 16})
	name := "aminer" // the lexically first network
	item := trees[name].Root().Children[0].Item
	for _, url := range []string{
		"/api/v1/query?alpha=0",
		"/api/v1/query?alpha=0.2",
		"/api/v1/query?alpha=0.2&k=5",
		"/api/v1/query?pattern=" + strconv.Itoa(int(item)) + "&alpha=0",
		"/api/v1/explain?alpha=0.1",
		"/api/v1/stats",
	} {
		viaDefault := get(t, fs, url)
		if viaDefault.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, viaDefault.Code, viaDefault.Body.String())
		}
		viaNetwork := get(t, fs, "/api/v1/"+name+url[len("/api/v1"):])
		if normalize(viaNetwork.Body.String()) != normalize(viaDefault.Body.String()) {
			t.Fatalf("per-network answer differs from the default network's for %s:\n%s\nvs\n%s",
				url, viaNetwork.Body.String(), viaDefault.Body.String())
		}
	}
	var stats engine.Stats
	if err := json.Unmarshal(get(t, fs, "/api/v1/enginestats").Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode enginestats: %v", err)
	}
	if stats.Shards != len(trees[name].Root().Children) || !stats.Cache.Shared || !stats.SharedResidency {
		t.Fatalf("default enginestats %+v are not the shared-resource member %q", stats, name)
	}
}

// TestTreeServerIsOneNetworkFederation: a server over a tree is a federation
// of one network named "default" — listed on /api/v1/networks, scoped under
// /api/v1/default/..., and the same bytes on the bare routes.
func TestTreeServerIsOneNetworkFederation(t *testing.T) {
	tree, built := buildFedTree(t, 7), buildFedIndex(t, 7)
	s, err := New(built, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var nets NetworksResponse
	if err := json.Unmarshal(get(t, s, "/api/v1/networks").Body.Bytes(), &nets); err != nil {
		t.Fatalf("decode networks: %v", err)
	}
	if nets.Default != "default" || len(nets.Networks) != 1 || nets.Networks[0].Name != "default" ||
		nets.Networks[0].Nodes != tree.NumNodes() {
		t.Fatalf("networks = %+v, want the one network \"default\"", nets)
	}
	for _, params := range []string{"alpha=0", "alpha=0.2&k=3", "alpha=0&limit=2"} {
		bare := get(t, s, "/api/v1/query?"+params)
		scoped := get(t, s, "/api/v1/default/query?"+params)
		if bare.Code != http.StatusOK || normalize(scoped.Body.String()) != normalize(bare.Body.String()) {
			t.Fatalf("%s: /api/v1/default/query (%d) differs from /api/v1/query (%d):\n%s\nvs\n%s",
				params, scoped.Code, bare.Code, scoped.Body.String(), bare.Body.String())
		}
	}

	// Into a caller's federation, the index joins as "default" and takes the
	// bare routes unless DefaultNetwork names another member.
	fed := federation.New(federation.Options{})
	if err := fed.AttachBuilt("aaa", buildFedIndex(t, 11), federation.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err = New(built, Options{Federation: fed})
	if err != nil {
		t.Fatalf("New into a federation: %v", err)
	}
	if err := json.Unmarshal(get(t, s, "/api/v1/networks").Body.Bytes(), &nets); err != nil {
		t.Fatalf("decode networks: %v", err)
	}
	if nets.Default != "default" || len(nets.Networks) != 2 {
		t.Fatalf("networks = %+v, want default among 2", nets)
	}
	if _, err := New(built, Options{Federation: fed}); err == nil {
		t.Fatalf("a second index under the taken name \"default\" was attached")
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
