package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/itemset"
	"themecomm/internal/replication"
	"themecomm/internal/tctree"
)

// testNetwork is the one network a test server serves through a federation,
// the only way a server finds a network: eager over Built, or lazy over Index
// when Built is nil, attached as treeNetwork with NetworkOptions to a
// federation built with Fed. Server configures the rest of the server.
type testNetwork struct {
	Built *tctree.Index
	Index *tctree.ShardedIndex
	federation.NetworkOptions
	Fed    federation.Options
	Server Options
}

// serve builds the server and returns it with the attached member, whose
// engine tests read counters from. A member holding its database network is
// writable as on tcserver: a journaled primary (openWritable) fronts it.
func (tn testNetwork) serve(tb testing.TB) (*Server, *federation.Network) {
	tb.Helper()
	fed := federation.New(tn.Fed)
	var err error
	if tn.Built != nil {
		err = fed.AttachBuilt(treeNetwork, tn.Built, tn.NetworkOptions)
	} else {
		err = fed.AttachIndex(treeNetwork, tn.Index, tn.NetworkOptions)
	}
	if err != nil {
		tb.Fatalf("attach: %v", err)
	}
	opts := tn.Server
	opts.Federation = fed
	opts.Primary = openWritable(tb, fed, filepath.Join(tb.TempDir(), "journal"))
	s, err := New(nil, opts)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	n, _ := fed.Network(treeNetwork)
	return s, n
}

// openWritable opens fed for writing as tcserver does
// (replication.OpenPrimary), its journal in dir ("" for the default beside
// the indexes) and without a checkpoint loop: tests checkpoint explicitly.
// It returns nil when fed has no writable network; the primary is closed
// when the test ends.
func openWritable(tb testing.TB, fed *federation.Federation, dir string) *replication.Primary {
	tb.Helper()
	p, _, err := replication.OpenPrimary(fed, dir, replication.Options{CheckpointInterval: -1})
	if err != nil {
		tb.Fatalf("OpenPrimary: %v", err)
	}
	if p != nil {
		tb.Cleanup(func() { p.Close() })
	}
	return p
}

// builtIndex builds nw's index in-process, as New and AttachBuilt serve it.
func builtIndex(tb testing.TB, nw *dbnet.Network, opts tctree.BuildOptions) *tctree.Index {
	tb.Helper()
	idx, err := tctree.BuildIndex(nw, opts)
	if err != nil {
		tb.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// openIndex writes tree as an index directory and opens it.
func openIndex(tb testing.TB, tree *tctree.Tree) *tctree.ShardedIndex {
	tb.Helper()
	dir := tb.TempDir()
	if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		tb.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		tb.Fatalf("OpenSharded: %v", err)
	}
	return idx
}

// newTestServer builds a server over the co-author analogue so that both item
// names and vertex names are exercised.
func newTestServer(t *testing.T) (*Server, gen.Dataset) {
	t.Helper()
	d, err := gen.AMiner(0.08)
	if err != nil {
		t.Fatalf("AMiner: %v", err)
	}
	s, _ := testNetwork{
		Built:          builtIndex(t, d.Network, tctree.BuildOptions{MaxDepth: 3}),
		NetworkOptions: federation.NetworkOptions{Dictionary: d.Dictionary, VertexNames: d.AuthorNames},
		Fed:            federation.Options{CacheSize: defaultCacheSize},
	}.serve(t)
	return s, d
}

func get(t *testing.T, s *Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestNewRejectsNilTree(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatalf("nil index should be rejected")
	}
}

func TestHealthAndStats(t *testing.T) {
	s, _ := newTestServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	rec = get(t, s, "/api/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if stats.Nodes <= 0 || stats.Depth <= 0 || stats.MaxAlpha <= 0 {
		t.Fatalf("degenerate stats %+v", stats)
	}
}

func TestQueryByAlphaEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rec := get(t, s, "/api/v1/query?alpha=0.2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.RetrievedNodes <= 0 || len(resp.Communities) == 0 {
		t.Fatalf("query returned nothing: %+v", resp)
	}
	for _, c := range resp.Communities {
		if len(c.Theme) == 0 || len(c.Vertices) < 3 || c.Edges < 3 {
			t.Fatalf("degenerate community %+v", c)
		}
	}
}

func TestQueryByPatternEndpoint(t *testing.T) {
	s, d := newTestServer(t)
	rec := get(t, s, "/api/v1/query?pattern=data+mining,sequential+pattern&alpha=0.1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Pattern) != 2 {
		t.Fatalf("echoed pattern = %v", resp.Pattern)
	}
	// Every returned theme must be a subset of the query pattern.
	allowed := map[string]bool{"data mining": true, "sequential pattern": true}
	for _, c := range resp.Communities {
		for _, kw := range c.Theme {
			if !allowed[kw] {
				t.Fatalf("theme %v is not a sub-pattern of the query", c.Theme)
			}
		}
		// Vertex names resolve to author names.
		if len(c.Vertices) > 0 && c.Vertices[0][:6] != "Author" {
			t.Fatalf("vertex names not resolved: %v", c.Vertices[:1])
		}
	}
	// A pattern may mix numeric ids and names: the same query with one item
	// given by id answers the same pattern and communities.
	id, ok := d.Dictionary.Lookup("data mining")
	if !ok {
		t.Fatalf("no item named %q", "data mining")
	}
	rec = get(t, s, fmt.Sprintf("/api/v1/query?pattern=%d,sequential+pattern&alpha=0.1", id))
	var mixed QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mixed); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("mixed pattern: status %d, decode %v, body %s", rec.Code, err, rec.Body.String())
	}
	mixed.QueryMicros = resp.QueryMicros
	if !reflect.DeepEqual(mixed, resp) {
		t.Fatalf("mixed pattern answer %+v != named %+v", mixed, resp)
	}
}

func TestQueryNumericPatternWithoutDictionary(t *testing.T) {
	s, err := New(builtIndex(t, dbnet.PaperExample(), tctree.BuildOptions{}), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := get(t, s, "/api/v1/query?pattern=1&alpha=0.1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.RetrievedNodes != 1 || len(resp.Communities) != 2 {
		t.Fatalf("paper example query answer wrong: %+v", resp)
	}
	// Named pattern without a dictionary is a client error.
	rec = get(t, s, "/api/v1/query?pattern=beer")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("named pattern without dictionary should be a 400, got %d", rec.Code)
	}
}

func TestPatternsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rec := get(t, s, "/api/v1/patterns?length=2&limit=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp PatternsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Length != 2 || resp.Count <= 0 {
		t.Fatalf("patterns response %+v", resp)
	}
	if len(resp.Patterns) > 5 {
		t.Fatalf("limit not honoured: %d", len(resp.Patterns))
	}
	for _, p := range resp.Patterns {
		if len(p) != 2 {
			t.Fatalf("pattern of wrong length: %v", p)
		}
	}
}

func TestVertexEndpoint(t *testing.T) {
	s, d := newTestServer(t)
	// Find a vertex that belongs to at least one community at α=0.2.
	qrec := get(t, s, "/api/v1/query?alpha=0.2")
	var q QueryResponse
	if err := json.Unmarshal(qrec.Body.Bytes(), &q); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(q.Communities) == 0 {
		t.Skipf("no communities at this α")
	}
	member := q.Communities[0].Vertices[0]
	// Resolve the author name back to the vertex id.
	id := -1
	for i, name := range d.AuthorNames {
		if name == member {
			id = i
			break
		}
	}
	if id < 0 {
		t.Fatalf("could not resolve author %q", member)
	}
	rec := get(t, s, "/api/v1/vertex?id="+strconv.Itoa(id)+"&alpha=0.2")
	if rec.Code != http.StatusOK {
		t.Fatalf("vertex status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp VertexResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Vertex != member {
		t.Fatalf("vertex name = %q, want %q", resp.Vertex, member)
	}
	if len(resp.Communities) == 0 {
		t.Fatalf("member of a community should have a non-empty profile")
	}
	// Bad requests.
	// Ids are 32-bit: one past the range must not wrap onto vertex 0 or an
	// item.
	for _, url := range []string{"/api/v1/vertex", "/api/v1/vertex?id=x", "/api/v1/vertex?id=-1", "/api/v1/vertex?id=0&alpha=bad",
		"/api/v1/vertex?id=4294967296", "/api/v1/vertex?id=2147483648", "/api/v1/vertex?id=0&pattern=4294967301"} {
		if rec := get(t, s, url); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", url, rec.Code)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		url  string
		want int
	}{
		{"/api/v1/query?alpha=-1", http.StatusBadRequest},
		{"/api/v1/query?alpha=abc", http.StatusBadRequest},
		{"/api/v1/query?pattern=no-such-keyword-anywhere", http.StatusBadRequest},
		{"/api/v1/query?pattern=,", http.StatusBadRequest},
		// Item ids outside [0, MaxInt32] must not wrap onto another item.
		{"/api/v1/query?pattern=4294967301", http.StatusBadRequest},
		{"/api/v1/query?pattern=-1", http.StatusBadRequest},
		{"/api/v1/query?pattern=2147483648&k=3", http.StatusBadRequest},
		{"/api/v1/query?pattern=4294967301&stream=1", http.StatusBadRequest},
		{"/api/v1/query?pattern=4294967301&limit=2", http.StatusBadRequest},
		{"/api/v1/explain?pattern=4294967301", http.StatusBadRequest},
		{"/api/v1/query?pattern=2147483647", http.StatusOK},
		{"/api/v1/patterns?length=0", http.StatusBadRequest},
		{"/api/v1/patterns?length=x", http.StatusBadRequest},
		{"/api/v1/patterns?limit=0", http.StatusBadRequest},
		{"/no/such/route", http.StatusNotFound},
	}
	for _, c := range cases {
		if rec := get(t, s, c.url); rec.Code != c.want {
			t.Errorf("GET %s = %d, want %d", c.url, rec.Code, c.want)
		}
	}
	rec := get(t, s, "/api/v1/query?pattern=4294967301")
	if want := "item id 4294967301 outside [0, 2147483647]"; !strings.Contains(rec.Body.String(), want) {
		t.Errorf("out-of-range item: body %s, want %q", rec.Body.String(), want)
	}
	if rec := post(t, s, "/api/v1/batch", `{"queries":[{"alpha":0},{"pattern":["4294967301"],"alpha":0}]}`); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "query 1: item id 4294967301 outside") {
		t.Errorf("batch with an out-of-range item = %d %s, want 400", rec.Code, rec.Body.String())
	}
	// Non-GET methods are rejected.
	for _, path := range []string{"/healthz", "/api/v1/stats", "/api/v1/query", "/api/v1/patterns"} {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, rec.Code)
		}
	}
}

func TestItemNamesFallback(t *testing.T) {
	// A dictionary that does not cover the network's items falls back to ids.
	dict := itemset.NewDictionary()
	s, _ := testNetwork{Built: builtIndex(t, dbnet.PaperExample(), tctree.BuildOptions{}), NetworkOptions: federation.NetworkOptions{Dictionary: dict}}.serve(t)
	rec := get(t, s, "/api/v1/patterns?length=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp PatternsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Count == 0 {
		t.Fatalf("no patterns returned")
	}
}

func post(t *testing.T, s *Server, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestQueryMatchesDirectTree checks that routing /api/v1/query through the
// engine returns the same answer the tree computes directly.
func TestQueryMatchesDirectTree(t *testing.T) {
	nw := dbnet.PaperExample()
	tree := tctree.Build(nw, tctree.BuildOptions{})
	s, err := New(builtIndex(t, nw, tctree.BuildOptions{}), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := tree.QueryByAlpha(0.1)
	rec := get(t, s, "/api/v1/query?alpha=0.1")
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.RetrievedNodes != want.RetrievedNodes || resp.VisitedNodes != want.VisitedNodes {
		t.Fatalf("engine answer (%d/%d nodes) differs from tree (%d/%d)",
			resp.RetrievedNodes, resp.VisitedNodes, want.RetrievedNodes, want.VisitedNodes)
	}
	if len(resp.Communities) != len(want.Communities()) {
		t.Fatalf("engine found %d communities, tree %d", len(resp.Communities), len(want.Communities()))
	}
}

func TestTopKQueryEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rec := get(t, s, "/api/v1/query?alpha=0.1&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.TopK != 3 {
		t.Fatalf("topK = %d, want 3", resp.TopK)
	}
	if len(resp.Communities) == 0 || len(resp.Communities) > 3 {
		t.Fatalf("top-k answer has %d communities", len(resp.Communities))
	}
	prev := resp.Communities[0].Cohesion
	for i, c := range resp.Communities {
		if c.Cohesion <= 0.1 {
			t.Fatalf("community %d has cohesion %g ≤ α_q", i, c.Cohesion)
		}
		if c.Cohesion > prev {
			t.Fatalf("communities not ranked by descending cohesion at %d", i)
		}
		prev = c.Cohesion
	}
	if rec := get(t, s, "/api/v1/query?k=0"); rec.Code != http.StatusBadRequest {
		t.Fatalf("k=0 should be rejected, got %d", rec.Code)
	}
	if rec := get(t, s, "/api/v1/query?k=x"); rec.Code != http.StatusBadRequest {
		t.Fatalf("k=x should be rejected, got %d", rec.Code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	body := `{"queries":[
		{"alpha":0.2},
		{"pattern":["data mining","sequential pattern"],"alpha":0.1},
		{"alpha":0.2}
	]}`
	rec := post(t, s, "/api/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	// The batch answers must match the single-query endpoint.
	single := get(t, s, "/api/v1/query?alpha=0.2")
	var want QueryResponse
	if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, i := range []int{0, 2} {
		got := resp.Results[i]
		if got.RetrievedNodes != want.RetrievedNodes || len(got.Communities) != len(want.Communities) {
			t.Fatalf("batch result %d (%d nodes, %d communities) differs from single query (%d, %d)",
				i, got.RetrievedNodes, len(got.Communities), want.RetrievedNodes, len(want.Communities))
		}
	}
	if len(resp.Results[1].Pattern) != 2 {
		t.Fatalf("pattern not echoed: %+v", resp.Results[1].Pattern)
	}

	// Bad requests.
	for _, body := range []string{"", "{}", `{"queries":[]}`, "not json", `{"queries":[{"alpha":-1}]}`, `{"queries":[{"pattern":["no-such-keyword"],"alpha":0}]}`} {
		if rec := post(t, s, "/api/v1/batch", body); rec.Code != http.StatusBadRequest {
			t.Errorf("batch %q = %d, want 400", body, rec.Code)
		}
	}
	if rec := get(t, s, "/api/v1/batch"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/v1/batch = %d, want 405", rec.Code)
	}
}

func TestEngineStatsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	get(t, s, "/api/v1/query?alpha=0.2") // miss
	get(t, s, "/api/v1/query?alpha=0.2") // hit
	rec := get(t, s, "/api/v1/enginestats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var stats engine.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if stats.Shards == 0 || stats.Workers == 0 {
		t.Fatalf("degenerate engine stats %+v", stats)
	}
	if stats.Queries < 2 || !stats.Cache.Enabled || stats.Cache.Hits < 1 {
		t.Fatalf("engine stats did not record the cached repeat: %+v", stats)
	}
	if rec := post(t, s, "/api/v1/enginestats", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/enginestats = %d, want 405", rec.Code)
	}
}

// TestExplainEndpoint checks /api/v1/explain: per-shard decisions for a
// named single-item pattern (one shard relevant, the rest skip-absent), the
// execution summary, and the query-by-alpha form.
func TestExplainEndpoint(t *testing.T) {
	s, d := newTestServer(t)
	name, err := d.Dictionary.Name(0)
	if err != nil {
		t.Fatalf("Name(0): %v", err)
	}
	rec := get(t, s, "/api/v1/explain?pattern="+strings.ReplaceAll(name, " ", "+")+"&alpha=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Pattern) != 1 || resp.Pattern[0] != name {
		t.Fatalf("pattern = %v, want [%s]", resp.Pattern, name)
	}
	if resp.Shards == 0 || len(resp.Tasks) != resp.Shards {
		t.Fatalf("report covers %d tasks of %d shards", len(resp.Tasks), resp.Shards)
	}
	if resp.SkippedAbsent != resp.Shards-1 {
		t.Fatalf("SkippedAbsent = %d, want %d", resp.SkippedAbsent, resp.Shards-1)
	}
	// The engine is eager, so the one relevant shard is on the heap and
	// never loaded.
	if resp.Loaded != 0 {
		t.Fatalf("eager explain reports loads: %+v", resp)
	}
	// Query-by-alpha form: every shard considered, none absent.
	rec = get(t, s, "/api/v1/explain?alpha=0.2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var qba ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qba); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !qba.Full || qba.SkippedAbsent != 0 {
		t.Fatalf("query-by-alpha explain: full=%v skippedAbsent=%d", qba.Full, qba.SkippedAbsent)
	}

	if rec := get(t, s, "/api/v1/explain?alpha=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("negative alpha = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/api/v1/explain?pattern=no-such-item"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown pattern = %d, want 400", rec.Code)
	}
	if rec := post(t, s, "/api/v1/explain", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/explain = %d, want 405", rec.Code)
	}
}

// canonicalBody re-renders a JSON response with every volatile field
// (queryMicros, the only wall-clock value) zeroed, so lazy and eager
// responses can be compared byte for byte.
func canonicalBody(t *testing.T, body []byte) string {
	t.Helper()
	return regexp.MustCompile(`"queryMicros":\d+`).ReplaceAllString(string(body), `"queryMicros":0`)
}

// TestLazyServerMatchesEager is the acceptance check for sharded serving: a
// server over a lazily loaded sharded index must return byte-identical
// responses (modulo wall-clock latency) to a server over the in-memory tree,
// and after a cold-start single-item query /api/v1/enginestats must report
// fewer-than-all shards resident.
func TestLazyServerMatchesEager(t *testing.T) {
	d, err := gen.AMiner(0.08)
	if err != nil {
		t.Fatalf("AMiner: %v", err)
	}
	tree := tctree.Build(d.Network, tctree.BuildOptions{MaxDepth: 3})
	nopts := federation.NetworkOptions{Dictionary: d.Dictionary, VertexNames: d.AuthorNames}
	eager, _ := testNetwork{Built: builtIndex(t, d.Network, tctree.BuildOptions{MaxDepth: 3}), NetworkOptions: nopts, Fed: federation.Options{CacheSize: defaultCacheSize}}.serve(t)
	lazy, _ := testNetwork{Index: openIndex(t, tree), NetworkOptions: nopts, Fed: federation.Options{CacheSize: 16}}.serve(t)

	// Cold start: one single-item query must leave most shards unloaded.
	item := tree.Root().Children[0].Item
	rec := get(t, lazy, "/api/v1/query?pattern="+strconv.Itoa(int(item))+"&alpha=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("cold single-item query = %d, body %s", rec.Code, rec.Body.String())
	}
	var stats engine.Stats
	if err := json.Unmarshal(get(t, lazy, "/api/v1/enginestats").Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode enginestats: %v", err)
	}
	if !stats.Lazy {
		t.Fatalf("enginestats does not report lazy mode: %+v", stats)
	}
	if stats.ResidentShards != 1 || stats.ResidentShards >= stats.Shards {
		t.Fatalf("after a cold single-item query %d of %d shards are resident, want exactly 1 (fewer than all)",
			stats.ResidentShards, stats.Shards)
	}
	if len(stats.ShardResidency) != stats.Shards {
		t.Fatalf("enginestats lists %d shards, want %d", len(stats.ShardResidency), stats.Shards)
	}

	// Byte-identical responses across every endpoint.
	urls := []string{
		"/api/v1/stats",
		"/api/v1/query?alpha=0.2",
		"/api/v1/query?pattern=" + strconv.Itoa(int(item)) + "&alpha=0",
		"/api/v1/query?alpha=0.1&k=5",
		"/api/v1/patterns?length=1",
		"/api/v1/patterns?length=2&limit=10",
		"/api/v1/vertex?id=3&alpha=0.1",
	}
	for _, url := range urls {
		want := get(t, eager, url)
		got := get(t, lazy, url)
		if got.Code != want.Code {
			t.Fatalf("GET %s: lazy = %d, eager = %d", url, got.Code, want.Code)
		}
		if canonicalBody(t, got.Body.Bytes()) != canonicalBody(t, want.Body.Bytes()) {
			t.Fatalf("GET %s: lazy response differs from eager\nlazy:  %s\neager: %s",
				url, got.Body.String(), want.Body.String())
		}
	}
	batch := `{"queries":[{"alpha":0.2},{"pattern":["` + strconv.Itoa(int(item)) + `"],"alpha":0}]}`
	want := post(t, eager, "/api/v1/batch", batch)
	got := post(t, lazy, "/api/v1/batch", batch)
	if got.Code != want.Code || canonicalBody(t, got.Body.Bytes()) != canonicalBody(t, want.Body.Bytes()) {
		t.Fatalf("batch: lazy response differs from eager\nlazy:  %s\neager: %s", got.Body.String(), want.Body.String())
	}
}

// TestLazyServerShardLoadFailure corrupts a shard file and expects the
// queries that touch it to surface a 500 with the checksum error, while
// queries avoiding the shard keep working.
func TestLazyServerShardLoadFailure(t *testing.T) {
	d, err := gen.AMiner(0.08)
	if err != nil {
		t.Fatalf("AMiner: %v", err)
	}
	tree := tctree.Build(d.Network, tctree.BuildOptions{MaxDepth: 2})
	dir := t.TempDir()
	m, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN)
	if err != nil {
		t.Fatalf("WriteShardedAs: %v", err)
	}
	victim := m.Shards[0]
	path := filepath.Join(dir, victim.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	s, _ := testNetwork{Index: idx}.serve(t)
	rec := get(t, s, "/api/v1/query?pattern="+strconv.Itoa(int(victim.Item))+"&alpha=0")
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "checksum") {
		t.Fatalf("query over corrupted shard = %d, body %s; want 500 with checksum error", rec.Code, rec.Body.String())
	}
	other := m.Shards[1]
	rec = get(t, s, "/api/v1/query?pattern="+strconv.Itoa(int(other.Item))+"&alpha=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("query avoiding the corrupted shard = %d, body %s", rec.Code, rec.Body.String())
	}
}

// TestContainsQueryEndpoint checks the containment mode of /api/v1/query:
// every returned theme is a superset of the query pattern, the response is
// tagged, and invalid combinations are client errors.
func TestContainsQueryEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rec := get(t, s, "/api/v1/query?pattern=data+mining&alpha=0&contains=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Contains {
		t.Fatalf("containment answer is not tagged: %+v", resp)
	}
	if len(resp.Communities) == 0 {
		t.Fatalf("no communities contain %q", "data mining")
	}
	for _, c := range resp.Communities {
		found := false
		for _, kw := range c.Theme {
			if kw == "data mining" {
				found = true
			}
		}
		if !found {
			t.Fatalf("theme %v does not contain the query item", c.Theme)
		}
	}

	// The sub-pattern answer for the same singleton is different work: it
	// retrieves exactly the one node, never supersets.
	rec = get(t, s, "/api/v1/query?pattern=data+mining&alpha=0")
	var sub QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sub.Contains {
		t.Fatalf("sub-pattern answer tagged as containment")
	}

	// Containment explain carries the mode and catalogue tallies.
	rec = get(t, s, "/api/v1/explain?pattern=data+mining&alpha=0&contains=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d, body %s", rec.Code, rec.Body.String())
	}
	var rep ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decode explain: %v", err)
	}
	if rep.Mode != engine.ModeContaining {
		t.Fatalf("explain mode %q, want %q", rep.Mode, engine.ModeContaining)
	}

	// Invalid parameter values and combinations are client errors.
	for _, url := range []string{
		"/api/v1/query?contains=maybe",
		"/api/v1/query?contains=true&k=3",
		"/api/v1/query?contains=true&limit=2",
		"/api/v1/query?contains=true&stream=1",
	} {
		if rec := get(t, s, url); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", url, rec.Code)
		}
	}
}
