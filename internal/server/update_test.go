package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/federation"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/replication"
	"themecomm/internal/tctree"
	"themecomm/internal/trace"
)

// buildUpdatableNetwork generates a network like the federation tests do,
// returning the network itself so updates can be applied to it.
func buildUpdatableNetwork(t *testing.T, seed int64) *dbnet.Network {
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

// newUpdatableServer builds a single-network server holding its database
// network, so POST /api/v1/update is enabled. The network file path is
// returned for write-back assertions.
func newUpdatableServer(t *testing.T, seed int64) (*Server, *dbnet.Network, string) {
	t.Helper()
	nw := buildUpdatableNetwork(t, seed)
	built := builtIndex(t, nw, tctree.BuildOptions{})
	if built.NumNodes() == 0 {
		t.Fatalf("seed %d built an empty index", seed)
	}
	netPath := filepath.Join(t.TempDir(), "net.dbnet")
	if err := dbnet.WriteFileAtomic(netPath, nw, nil); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, _ := testNetwork{Built: built, NetworkOptions: federation.NetworkOptions{Network: nw, NetworkPath: netPath}}.serve(t)
	return s, nw, netPath
}

func TestUpdateEndpoint(t *testing.T) {
	s, nw, netPath := newUpdatableServer(t, 11)

	body := `{"addVertices": 1, "addEdges": [[0,16],[1,16]], "addTransactions": [{"vertex": 16, "items": ["1","2"]}]}`
	rec := post(t, s, "/api/v1/update", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("update status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.AffectedItems) == 0 {
		t.Fatalf("update affected no items: %s", rec.Body.String())
	}
	if resp.IndexEpoch == 0 {
		t.Fatalf("update did not bump the index epoch: %s", rec.Body.String())
	}

	// The served index now answers like a from-scratch rebuild of the
	// updated network.
	fresh, err := New(builtIndex(t, nw, tctree.BuildOptions{}), Options{})
	if err != nil {
		t.Fatalf("fresh server: %v", err)
	}
	for _, url := range []string{"/api/v1/query?alpha=0", "/api/v1/query?alpha=0.2", "/api/v1/query?pattern=1,2&alpha=0"} {
		got := get(t, s, url)
		want := get(t, fresh, url)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("%s: status %d vs %d", url, got.Code, want.Code)
		}
		if normalize(got.Body.String()) != normalize(want.Body.String()) {
			t.Fatalf("%s diverges from fresh rebuild:\n got %s\nwant %s", url, got.Body.String(), want.Body.String())
		}
	}
	// The update's checkpoint writes the updated network back.
	if err := s.primary.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	reread, _, err := dbnet.ReadFile(netPath)
	if err != nil {
		t.Fatalf("ReadFile after write-back: %v", err)
	}
	if reread.NumVertices() != nw.NumVertices() || reread.NumEdges() != nw.NumEdges() {
		t.Fatalf("written-back network |V|=%d,|E|=%d, want |V|=%d,|E|=%d",
			reread.NumVertices(), reread.NumEdges(), nw.NumVertices(), nw.NumEdges())
	}

	// Engine stats surface the epoch and the delta count.
	var stats map[string]any
	if err := json.Unmarshal(get(t, s, "/api/v1/enginestats").Body.Bytes(), &stats); err != nil {
		t.Fatalf("enginestats: %v", err)
	}
	if stats["indexEpoch"].(float64) != float64(resp.IndexEpoch) {
		t.Fatalf("enginestats indexEpoch = %v, want %d", stats["indexEpoch"], resp.IndexEpoch)
	}
	if stats["deltasApplied"].(float64) != 1 {
		t.Fatalf("enginestats deltasApplied = %v, want 1", stats["deltasApplied"])
	}
}

// TestUpdateRendersNewItemNames renders an answer — which builds the
// network's name tables — then applies an update that interns a new item
// name: the tables grow, and every route renders the new item by its name,
// escaped as encoding/json escapes it.
func TestUpdateRendersNewItemNames(t *testing.T) {
	nw := buildUpdatableNetwork(t, 11)
	netPath := filepath.Join(t.TempDir(), "net.dbnet")
	if err := dbnet.WriteFileAtomic(netPath, nw, nil); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, _ := testNetwork{Built: builtIndex(t, nw, tctree.BuildOptions{}), NetworkOptions: federation.NetworkOptions{
		Dictionary: itemset.NewDictionary(), Network: nw, NetworkPath: netPath}}.serve(t)
	if rec := get(t, s, "/api/v1/query?alpha=0"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"item-0"`) {
		t.Fatalf("before the update: status %d, body %.300s", rec.Code, rec.Body.String())
	}

	const name = "fresh <item> & more"
	// A rejected update introduces no name.
	if rec := post(t, s, "/api/v1/update", `{"addTransactions": [{"vertex": 99, "items": ["`+name+`"]}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("update of vertex 99 = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/api/v1/query?pattern="+url.QueryEscape(name)+"&alpha=0"); rec.Code != http.StatusBadRequest {
		t.Fatalf("the rejected update's name resolves: %d %s", rec.Code, rec.Body.String())
	}
	rec := post(t, s, "/api/v1/update", `{"addVertices": 3, "addEdges": [[16,17],[17,18],[16,18]], "addTransactions": [`+
		`{"vertex": 16, "items": ["`+name+`"]}, {"vertex": 17, "items": ["`+name+`"]}, {"vertex": 18, "items": ["`+name+`"]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update status = %d, body %s", rec.Code, rec.Body.String())
	}
	quoted, _ := json.Marshal([]string{name})
	theme := `"theme":` + string(quoted)
	for _, target := range []string{
		"/api/v1/query?alpha=0",
		"/api/v1/query?alpha=0&k=100",
		"/api/v1/query?alpha=0&stream=1",
		"/api/v1/query?pattern=" + url.QueryEscape(name) + "&alpha=0",
		"/api/v1/vertex?id=16&alpha=0",
	} {
		rec := get(t, s, target)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), theme) {
			t.Errorf("GET %s: status %d, no %s in %.300s", target, rec.Code, theme, rec.Body.String())
		}
	}
	// The update's checkpoint writes the name into the network file.
	if err := s.primary.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, dict, err := dbnet.ReadFile(netPath); err != nil {
		t.Fatalf("re-read: %v", err)
	} else if _, ok := dict.Lookup(name); !ok {
		t.Fatalf("the network file does not name %q", name)
	}
}

func TestUpdateDisabledWithoutNetwork(t *testing.T) {
	s, _ := newTestServer(t) // no Options.Network
	rec := post(t, s, "/api/v1/update", `{"addVertices": 1}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("update without a network: status = %d, want 409", rec.Code)
	}
	assertJSONError(t, rec)
}

func TestUpdateBadRequests(t *testing.T) {
	s, _, _ := newUpdatableServer(t, 11)
	cases := []struct {
		name, body string
	}{
		{"invalid json", `{"addEdges": nope}`},
		{"empty delta", `{}`},
		{"self-loop", `{"addEdges": [[3,3]]}`},
		{"vertex out of range", `{"addEdges": [[0,99]]}`},
		{"negative vertex", `{"addTransactions": [{"vertex": -1, "items": ["1"]}]}`},
		{"empty transaction", `{"addTransactions": [{"vertex": 0, "items": []}]}`},
		{"named item without dictionary", `{"addTransactions": [{"vertex": 0, "items": ["coffee"]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, "/api/v1/update", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body.String())
			}
			assertJSONError(t, rec)
		})
	}
	// Wrong method.
	rec := get(t, s, "/api/v1/update")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET update: status = %d, want 405", rec.Code)
	}
	assertJSONError(t, rec)
}

// TestFederationUpdateRoute updates one tenant through the {network} route
// and asserts the other tenants' answers and cache entries survive.
func TestFederationUpdateRoute(t *testing.T) {
	fed := federation.New(federation.Options{CacheSize: 64})
	nws := make(map[string]*dbnet.Network)
	for name, seed := range fedSeeds {
		nw := buildUpdatableNetwork(t, seed)
		nws[name] = nw
		tree := tctree.Build(nw, tctree.BuildOptions{})
		dir := t.TempDir()
		if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
			t.Fatal(err)
		}
		idx, err := tctree.OpenSharded(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := fed.AttachIndex(name, idx, federation.NetworkOptions{Network: nw}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(nil, Options{Federation: fed, Primary: openWritable(t, fed, filepath.Join(t.TempDir(), "journal"))})
	if err != nil {
		t.Fatal(err)
	}

	// Warm every tenant's cache, snapshot an untouched tenant's answer.
	for name := range fedSeeds {
		if rec := get(t, s, "/api/v1/"+name+"/query?alpha=0.1"); rec.Code != http.StatusOK {
			t.Fatalf("%s warm query: %d", name, rec.Code)
		}
	}
	bkBefore := get(t, s, "/api/v1/bk/query?alpha=0.1").Body.String()

	rec := post(t, s, "/api/v1/aminer/update", `{"addTransactions": [{"vertex": 0, "items": ["1"]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("federated update: status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Network != "aminer" {
		t.Fatalf("update response network = %q, want aminer", resp.Network)
	}

	// The untouched tenant answers identically (and from its intact cache).
	if after := get(t, s, "/api/v1/bk/query?alpha=0.1").Body.String(); normalize(after) != normalize(bkBefore) {
		t.Fatalf("untouched tenant's answer changed:\n before %s\n after %s", bkBefore, after)
	}
	// The updated tenant matches a from-scratch rebuild.
	fresh, err := New(builtIndex(t, nws["aminer"], tctree.BuildOptions{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := get(t, s, "/api/v1/aminer/query?alpha=0")
	want := get(t, fresh, "/api/v1/query?alpha=0")
	if normalize(got.Body.String()) != normalize(want.Body.String()) {
		t.Fatalf("updated tenant diverges from fresh rebuild:\n got %s\nwant %s", got.Body.String(), want.Body.String())
	}

	// A tenant attached without its network rejects updates with 409.
	if err := fed.AttachBuilt("frozen", buildFedIndex(t, 17), federation.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	rec = post(t, s, "/api/v1/frozen/update", `{"addVertices": 1}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("update without network: status = %d, want 409", rec.Code)
	}
	assertJSONError(t, rec)

	// Unknown networks 404 identically to the other {network} routes.
	rec = post(t, s, "/api/v1/nosuch/update", `{"addVertices": 1}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown network update: status = %d, want 404", rec.Code)
	}
	assertJSONError(t, rec)
}

// assertJSONError asserts an error response carries the JSON content type
// and an "error" field — the contract every API error follows.
func assertJSONError(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type = %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || strings.TrimSpace(e.Error) == "" {
		t.Fatalf("error body is not a JSON error object: %s", rec.Body.String())
	}
}

// TestErrorResponsesAreJSON audits the API error paths: every error —
// including unknown routes, which the stock mux would answer in plain text —
// must be a JSON object with an "error" field and the JSON content type.
func TestErrorResponsesAreJSON(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		name, method, url string
		wantStatus        int
	}{
		{"bad alpha", http.MethodGet, "/api/v1/query?alpha=minus", http.StatusBadRequest},
		{"bad k", http.MethodGet, "/api/v1/query?alpha=0&k=0", http.StatusBadRequest},
		{"bad vertex", http.MethodGet, "/api/v1/vertex?id=x", http.StatusBadRequest},
		{"method not allowed", http.MethodPost, "/api/v1/query", http.StatusMethodNotAllowed},
		{"batch via GET", http.MethodGet, "/api/v1/batch", http.StatusMethodNotAllowed},
		{"unknown api route", http.MethodGet, "/api/v1/nosuchroute", http.StatusNotFound},
		{"unknown root route", http.MethodGet, "/nosuch", http.StatusNotFound},
		{"unknown network", http.MethodGet, "/api/v1/somewhere/query?alpha=0", http.StatusNotFound},
		{"queryall bad alpha", http.MethodGet, "/api/v1/queryall?alpha=-1", http.StatusBadRequest},
		{"update disabled", http.MethodPost, "/api/v1/update", http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, s, tc.url)
			if tc.method == http.MethodPost {
				rec = post(t, s, tc.url, `{}`)
			}
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json (body %s)", ct, rec.Body.String())
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, rec.Body.String())
			}
			if strings.TrimSpace(e.Error) == "" {
				t.Fatalf("error body has no message: %s", rec.Body.String())
			}
		})
	}
}

// TestUpdateWriteBackFailureCommitsNothing pins the order of the one write
// route's checkpoint on a server opened without a journal directory: the
// stamped network file is written before the index manifest is committed.
// An update answers 200 only once it is journaled; when the checkpoint's
// write-back then fails nothing is committed — the index on disk never runs
// ahead of its only rebuild source — the update is served from memory, and
// the next checkpoint persists it with the next update. A journal that cannot
// take an update answers 5xx.
func TestUpdateWriteBackFailureCommitsNothing(t *testing.T) {
	dir := t.TempDir()
	nw := buildUpdatableNetwork(t, 11)
	indexDir, netPath := filepath.Join(dir, "net.index"), filepath.Join(dir, "net.dbnet")
	if _, err := tctree.Build(nw, tctree.BuildOptions{}).WriteShardedAs(indexDir, tctree.FormatTCBIN); err != nil {
		t.Fatal(err)
	}
	if err := dbnet.WriteFileAtomic(netPath, nw, nil); err != nil {
		t.Fatal(err)
	}
	open := func() (*Server, *federation.Network, *replication.Primary) {
		fed := federation.New(federation.Options{CacheSize: 64})
		if err := fed.AttachIndexDir("net", indexDir, netPath); err != nil {
			t.Fatal(err)
		}
		p := openWritable(t, fed, "")
		s, err := New(nil, Options{Federation: fed, Primary: p})
		if err != nil {
			t.Fatal(err)
		}
		n, _ := fed.Network("net")
		return s, n, p
	}
	urls := []string{"/api/v1/query?alpha=0", "/api/v1/query?alpha=0.2", "/api/v1/query?pattern=1,2&alpha=0"}
	assertServesFreshBuild := func(s *Server, n *federation.Network, when string) {
		t.Helper()
		fresh, _ := testNetwork{
			Built:          builtIndex(t, n.DatabaseNetwork(), tctree.BuildOptions{}),
			NetworkOptions: federation.NetworkOptions{Dictionary: n.Dictionary()},
		}.serve(t)
		for _, url := range urls {
			if got, want := get(t, s, url).Body.String(), get(t, fresh, url).Body.String(); normalize(got) != normalize(want) {
				t.Fatalf("%s: %s diverges from a fresh build:\n got %s\nwant %s", when, url, got, want)
			}
		}
	}
	manifest := func() string {
		data, err := os.ReadFile(filepath.Join(indexDir, tctree.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	update := func(s *Server, body string) UpdateResponse {
		t.Helper()
		rec := post(t, s, "/api/v1/update", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("update status = %d, body %s", rec.Code, rec.Body.String())
		}
		var resp UpdateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.UpdateMicros <= 0 || resp.JournalSeq == 0 {
			t.Fatalf("updateMicros = %d, journalSeq = %d: a 200 is a journaled update", resp.UpdateMicros, resp.JournalSeq)
		}
		return resp
	}

	s, n, p := open()
	before := manifest()
	// The network file's temp name is taken: the write-back cannot happen.
	block := netPath + ".tmp"
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	// Three new vertices carrying items 1 and 2 form a triangle, which
	// changes the content of those items' shards: a manifest that commits
	// them differs from the one before, whatever the file names.
	resp := update(s, `{"addVertices": 3, "addEdges": [[0,16],[1,16],[16,17],[17,18],[16,18]], "addTransactions": [{"vertex": 16, "items": ["1","2"]}, {"vertex": 17, "items": ["1","2"]}, {"vertex": 18, "items": ["1","2"]}]}`)
	if len(resp.AffectedItems) == 0 {
		t.Fatalf("the update affected nothing: %+v", resp)
	}
	if err := p.Checkpoint(); err == nil {
		t.Fatal("the checkpoint succeeded although the network write-back cannot")
	}
	if manifest() != before {
		t.Fatalf("manifest committed although the network write-back failed")
	}
	if onDisk, _, err := dbnet.ReadFile(netPath); err != nil || onDisk.NumVertices() != 16 {
		t.Fatalf("network file after the failed write-back: %v vertices (%v), want the original 16", onDisk.NumVertices(), err)
	}
	if st := p.Status().Networks["net"]; st.FlushedSeq >= st.AppliedSeq {
		t.Fatalf("status after the failed checkpoint: %+v, want flushedSeq below appliedSeq", st)
	}
	if n.Engine().DirtyShards() == 0 {
		t.Fatalf("the update's shards were not kept for the next checkpoint")
	}
	assertServesFreshBuild(s, n, "served from memory")

	// The next checkpoint persists both deltas.
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	update(s, `{"addTransactions": [{"vertex": 0, "items": ["1"]}]}`)
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the write-back recovered: %v", err)
	}
	if manifest() == before || n.Engine().DirtyShards() != 0 {
		t.Fatalf("the second checkpoint did not commit the index (%d dirty shards)", n.Engine().DirtyShards())
	}
	assertServesFreshBuild(s, n, "after the second update")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, n2, p2 := open()
	if got := n2.DatabaseNetwork().NumVertices(); got != 19 {
		t.Fatalf("reopened network has %d vertices, want 19", got)
	}
	assertServesFreshBuild(reopened, n, "reopened")

	// An update the journal cannot take is not acknowledged.
	if err := p2.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	if rec := post(t, reopened, "/api/v1/update", `{"addTransactions": [{"vertex": 0, "items": ["2"]}]}`); rec.Code < 500 {
		t.Fatalf("update on a closed journal: status %d, want 5xx (body %s)", rec.Code, rec.Body.String())
	}
	assertServesFreshBuild(reopened, n, "after the refused update")
}

// TestAcknowledgedUpdatesSurviveADroppedServer drops a server opened without
// a journal directory after it acknowledged two updates — no Stop, no
// checkpoint, only the journal closed as the process's end closes it — and
// reopens the same directory: recovery replays both, and the reopened server
// serves them.
func TestAcknowledgedUpdatesSurviveADroppedServer(t *testing.T) {
	dir := t.TempDir()
	nw := buildUpdatableNetwork(t, 13)
	indexDir, netPath := filepath.Join(dir, "net.index"), filepath.Join(dir, "net.dbnet")
	if _, err := tctree.Build(nw, tctree.BuildOptions{}).WriteShardedAs(indexDir, tctree.FormatTCBIN); err != nil {
		t.Fatal(err)
	}
	if err := dbnet.WriteFileAtomic(netPath, nw, nil); err != nil {
		t.Fatal(err)
	}
	open := func() (*Server, *federation.Network, *replication.RecoverStats, *replication.Primary) {
		fed := federation.New(federation.Options{CacheSize: 64})
		if err := fed.AttachIndexDir("net", indexDir, netPath); err != nil {
			t.Fatal(err)
		}
		p, stats, err := replication.OpenPrimary(fed, "", replication.Options{CheckpointInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(nil, Options{Federation: fed, Primary: p})
		if err != nil {
			t.Fatal(err)
		}
		n, _ := fed.Network("net")
		return s, n, stats, p
	}
	s, _, _, p := open()
	for _, body := range []string{
		`{"addVertices": 2, "addEdges": [[0,16],[1,16],[0,17],[16,17]], "addTransactions": [{"vertex": 16, "items": ["1","2"]}, {"vertex": 17, "items": ["1","2"]}]}`,
		`{"addTransactions": [{"vertex": 0, "items": ["1","2"]}]}`,
	} {
		if rec := post(t, s, "/api/v1/update", body); rec.Code != http.StatusOK {
			t.Fatalf("update status = %d, body %s", rec.Code, rec.Body.String())
		}
	}
	if err := delta.Apply(nw, &delta.Delta{AddVertices: 2,
		AddEdges:        []graph.Edge{graph.EdgeOf(0, 16), graph.EdgeOf(1, 16), graph.EdgeOf(0, 17), graph.EdgeOf(16, 17)},
		AddTransactions: []delta.VertexTransaction{{Vertex: 16, Tx: itemset.New(1, 2)}, {Vertex: 17, Tx: itemset.New(1, 2)}}}); err != nil {
		t.Fatal(err)
	}
	if err := delta.Apply(nw, &delta.Delta{AddTransactions: []delta.VertexTransaction{{Vertex: 0, Tx: itemset.New(1, 2)}}}); err != nil {
		t.Fatal(err)
	}
	p.Journal().Close() // the process ends

	if onDisk, _, err := dbnet.ReadFile(netPath); err != nil || onDisk.NumVertices() != 16 {
		t.Fatalf("the dropped server's network file: %v (%v), want the 16 vertices it started with", onDisk.NumVertices(), err)
	}
	reopened, n, stats, p2 := open()
	defer p2.Close()
	if stats.Replayed != 2 {
		t.Fatalf("recovery replayed %d records, want the 2 acknowledged updates", stats.Replayed)
	}
	fresh, _ := testNetwork{
		Built:          builtIndex(t, nw, tctree.BuildOptions{}),
		NetworkOptions: federation.NetworkOptions{Dictionary: n.Dictionary()},
	}.serve(t)
	for _, url := range []string{"/api/v1/query?alpha=0", "/api/v1/query?alpha=0.2", "/api/v1/query?pattern=1,2&alpha=0"} {
		if got, want := get(t, reopened, url).Body.String(), get(t, fresh, url).Body.String(); normalize(got) != normalize(want) {
			t.Fatalf("%s: the reopened server diverges from the acknowledged updates:\n got %s\nwant %s", url, got, want)
		}
	}
}

// applyRecorder records the apply duration of every update an engine
// reports.
type applyRecorder struct {
	mu      sync.Mutex
	applies []time.Duration
}

func (r *applyRecorder) RecordQuery(context.Context, trace.QueryObservation) {}

func (r *applyRecorder) RecordUpdate(u trace.UpdateObservation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applies = append(r.applies, u.Duration)
}

// last returns the most recent apply duration and how many were recorded.
func (r *applyRecorder) last() (time.Duration, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.applies) == 0 {
		return 0, 0
	}
	return r.applies[len(r.applies)-1], len(r.applies)
}

// TestUpdateDurationsMeanTheSameOnEveryRoute drives the one update route on
// two members, through the tenant's update call and through POST, and holds
// each to one meaning: DeltaResult.Duration is the engine's in-memory apply,
// exactly what the Recorder observes, and updateMicros times the whole
// update, journal append included, so it is never below that apply.
func TestUpdateDurationsMeanTheSameOnEveryRoute(t *testing.T) {
	dir := t.TempDir()
	rec := &applyRecorder{}
	fed := federation.New(federation.Options{Recorder: rec})
	for _, name := range []string{"alpha", "beta"} {
		nw := buildUpdatableNetwork(t, 17)
		netPath := filepath.Join(dir, name+".dbnet")
		if err := dbnet.WriteFileAtomic(netPath, nw, nil); err != nil {
			t.Fatalf("%s: write network: %v", name, err)
		}
		indexDir := filepath.Join(dir, name)
		if _, err := builtIndex(t, nw, tctree.BuildOptions{}).Write(indexDir); err != nil {
			t.Fatalf("%s: write index: %v", name, err)
		}
		idx, err := tctree.OpenSharded(indexDir)
		if err != nil {
			t.Fatalf("%s: OpenSharded: %v", name, err)
		}
		if err := fed.AttachIndex(name, idx, federation.NetworkOptions{Network: nw, NetworkPath: netPath}); err != nil {
			t.Fatalf("%s: AttachIndex: %v", name, err)
		}
	}
	s, err := New(nil, Options{Federation: fed, Primary: openWritable(t, fed, filepath.Join(dir, "journal"))})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	for _, name := range []string{"alpha", "beta"} {
		n, _ := fed.Network(name)
		tn := s.tenantOf(n)
		if !tn.writable {
			t.Fatalf("%s is not writable", name)
		}
		d, err := tn.parseUpdate(&UpdateRequest{AddTransactions: []UpdateTransaction{{Vertex: 0, Items: []string{"3"}}}})
		if err != nil {
			t.Fatalf("%s: parseUpdate: %v", name, err)
		}
		ar, err := s.primary.Apply(name, d)
		if err != nil {
			t.Fatalf("%s: update: %v", name, err)
		}
		if ar.Seq == 0 {
			t.Fatalf("%s: the update was not journaled", name)
		}
		res := ar.Result
		applied, count := rec.last()
		if count == 0 || res.Duration != applied {
			t.Fatalf("%s: DeltaResult.Duration = %v, recorded apply = %v (%d recorded)", name, res.Duration, applied, count)
		}

		w := post(t, s, "/api/v1/"+name+"/update", `{"addTransactions": [{"vertex": 1, "items": ["2","4"]}]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: POST update: status %d, body %s", name, w.Code, w.Body.String())
		}
		var resp UpdateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		applied, after := rec.last()
		if after != count+1 {
			t.Fatalf("%s: %d applies recorded after the POST, want %d", name, after, count+1)
		}
		if resp.UpdateMicros < applied.Microseconds() {
			t.Fatalf("%s: updateMicros = %d, below the recorded apply of %dµs", name, resp.UpdateMicros, applied.Microseconds())
		}
	}
}
