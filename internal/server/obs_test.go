package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/obs"
	"themecomm/internal/obs/promtest"
	"themecomm/internal/tctree"
)

// newObservedServer builds a single-network server with the full
// observability layer: one observer shared between the engine (Recorder) and
// the server (Obs), with a threshold that captures every executed query into
// the slow log.
func newObservedServer(t *testing.T) (*Server, *obs.Observer) {
	t.Helper()
	o := obs.NewObserver(obs.ObserverOptions{SlowThreshold: time.Nanosecond})
	s, _ := testNetwork{
		Built:  buildFedIndex(t, 7),
		Fed:    federation.Options{CacheSize: 8, Recorder: o},
		Server: Options{Obs: o},
	}.serve(t)
	return s, o
}

// getWithID issues a GET with a client-supplied X-Request-ID.
func getWithID(t *testing.T, s *Server, url, id string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if id != "" {
		req.Header.Set(obs.HeaderRequestID, id)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// scrape fetches /metrics and parses it against the exposition grammar — the
// parser-roundtrip check of the served payload.
func scrape(t *testing.T, s *Server) map[string]*promtest.Family {
	t.Helper()
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	fams, err := promtest.Parse(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics violates the exposition grammar: %v", err)
	}
	return fams
}

// sampleValue sums the family's samples of the given name whose labels match
// want; n counts them.
func sampleValue(fam *promtest.Family, name string, want map[string]string) (total float64, n int) {
	if fam == nil {
		return 0, 0
	}
	for _, smp := range fam.Samples {
		if smp.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if smp.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += smp.Value
			n++
		}
	}
	return total, n
}

// TestServerMetricsEndToEnd drives a query with an injected request ID
// through the observed server and checks the whole pipeline: header echo,
// valid /metrics exposing engine + query + HTTP families that moved, and the
// slow-query log carrying the request ID and the full plan.
func TestServerMetricsEndToEnd(t *testing.T) {
	s, _ := newObservedServer(t)

	rec := getWithID(t, s, "/api/v1/query?alpha=0.2", "test-req-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.HeaderRequestID); got != "test-req-1" {
		t.Fatalf("echoed request ID = %q, want test-req-1", got)
	}
	// Without a client ID the server assigns one.
	rec = getWithID(t, s, "/api/v1/query?alpha=0.2", "")
	if got := rec.Header().Get(obs.HeaderRequestID); got == "" {
		t.Fatalf("no server-assigned request ID on the response")
	}

	fams := scrape(t, s)
	for _, name := range []string{
		"tc_queries_total", "tc_query_duration_seconds",
		"tc_query_stage_duration_seconds", "tc_slow_queries_total",
		"tc_http_requests_total", "tc_http_request_duration_seconds",
		"tc_http_requests_in_flight",
		"tc_engine_queries_total", "tc_engine_shards",
		"tc_cache_hits_total", "tc_cache_misses_total", "tc_cache_capacity",
	} {
		if fams[name] == nil {
			t.Fatalf("family %s missing from /metrics", name)
		}
	}
	if v, n := sampleValue(fams["tc_queries_total"], "tc_queries_total",
		map[string]string{"network": treeNetwork, "result": "miss"}); n != 1 || v != 1 {
		t.Fatalf("tc_queries_total miss = %v (%d samples), want 1", v, n)
	}
	if v, n := sampleValue(fams["tc_queries_total"], "tc_queries_total",
		map[string]string{"network": treeNetwork, "result": "hit"}); n != 1 || v != 1 {
		t.Fatalf("tc_queries_total hit = %v (%d samples), want 1", v, n)
	}
	// Both answers were encoded, the cache hit included.
	if v, n := sampleValue(fams["tc_query_stage_duration_seconds"], "tc_query_stage_duration_seconds_count",
		map[string]string{"network": treeNetwork, "stage": "encode"}); n != 1 || v != 2 {
		t.Fatalf("encode stage count = %v (%d series), want 2", v, n)
	}
	if v, _ := sampleValue(fams["tc_engine_queries_total"], "tc_engine_queries_total",
		map[string]string{"network": treeNetwork}); v < 1 {
		t.Fatalf("tc_engine_queries_total = %v, want >= 1", v)
	}
	if v, _ := sampleValue(fams["tc_http_requests_total"], "tc_http_requests_total",
		map[string]string{"route": "/api/v1/query", "method": "GET", "code": "200"}); v != 2 {
		t.Fatalf("tc_http_requests_total for /api/v1/query = %v, want 2", v)
	}
	// The federation's one result cache is labeled shared.
	if _, n := sampleValue(fams["tc_cache_misses_total"], "tc_cache_misses_total",
		map[string]string{"cache": "shared"}); n != 1 {
		t.Fatalf("tc_cache_misses_total samples = %d, want 1", n)
	}

	rec = get(t, s, "/api/v1/slowlog")
	if rec.Code != http.StatusOK {
		t.Fatalf("slowlog status = %d", rec.Code)
	}
	var sl SlowLogResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sl); err != nil {
		t.Fatalf("decode slowlog: %v", err)
	}
	if sl.ThresholdMicros != 0 && sl.ThresholdMicros != time.Nanosecond.Microseconds() {
		t.Fatalf("thresholdMicros = %d", sl.ThresholdMicros)
	}
	if sl.Total < 1 || len(sl.Entries) < 1 {
		t.Fatalf("slow log empty: total=%d entries=%d", sl.Total, len(sl.Entries))
	}
	found := false
	for _, e := range sl.Entries {
		if e.RequestID == "test-req-1" {
			found = true
			if e.Plan == nil {
				t.Fatalf("slow entry has no plan detail: %+v", e)
			}
			if e.DurationMicros < 0 || e.Shards <= 0 {
				t.Fatalf("degenerate slow entry: %+v", e)
			}
		}
	}
	if !found {
		t.Fatalf("no slow entry carries request ID test-req-1: %+v", sl.Entries)
	}
}

// TestVertexLookupKeepsItsRequestID pins the context a vertex lookup hands
// the engine: the query behind /api/v1/vertex is observed — and, being slow
// under this threshold, logged — under the X-Request-ID of the HTTP request,
// not under a context the engine made up.
func TestVertexLookupKeepsItsRequestID(t *testing.T) {
	s, _ := newObservedServer(t)
	if rec := getWithID(t, s, "/api/v1/vertex?id=3&alpha=0.1", "vertex-req-1"); rec.Code != http.StatusOK {
		t.Fatalf("vertex status = %d, body %s", rec.Code, rec.Body.String())
	}
	var sl SlowLogResponse
	if err := json.Unmarshal(get(t, s, "/api/v1/slowlog").Body.Bytes(), &sl); err != nil {
		t.Fatalf("decode slowlog: %v", err)
	}
	for _, e := range sl.Entries {
		if e.RequestID == "vertex-req-1" {
			if e.Plan == nil || e.Shards <= 0 {
				t.Fatalf("the vertex lookup's slow entry is degenerate: %+v", e)
			}
			return
		}
	}
	t.Fatalf("no slow entry carries request ID vertex-req-1: %+v", sl.Entries)
}

// TestFederatedMetricsPerTenant checks the multi-tenant surface: per-network
// query families, exactly one shared-cache sample per cache family, and the
// federation families.
func TestFederatedMetricsPerTenant(t *testing.T) {
	o := obs.NewObserver(obs.ObserverOptions{})
	fed := federation.New(federation.Options{CacheSize: 32, Recorder: o})
	for name, seed := range fedSeeds {
		dir := t.TempDir()
		if _, err := buildFedTree(t, seed).WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
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
	s, err := New(nil, Options{Federation: fed, Obs: o})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	for name := range fedSeeds {
		if rec := get(t, s, "/api/v1/"+name+"/query?alpha=0.2"); rec.Code != http.StatusOK {
			t.Fatalf("query %s = %d: %s", name, rec.Code, rec.Body.String())
		}
	}
	if rec := get(t, s, "/api/v1/queryall?alpha=0.3"); rec.Code != http.StatusOK {
		t.Fatalf("queryall = %d: %s", rec.Code, rec.Body.String())
	}

	fams := scrape(t, s)
	for name := range fedSeeds {
		if v, _ := sampleValue(fams["tc_queries_total"], "tc_queries_total",
			map[string]string{"network": name}); v < 2 {
			t.Fatalf("tc_queries_total{network=%q} = %v, want >= 2 (direct + queryall)", name, v)
		}
		if v, _ := sampleValue(fams["tc_engine_shards"], "tc_engine_shards",
			map[string]string{"network": name}); v < 1 {
			t.Fatalf("tc_engine_shards{network=%q} = %v", name, v)
		}
	}
	// The shared cache is emitted once, not once per tenant.
	for _, name := range []string{"tc_cache_hits_total", "tc_cache_misses_total", "tc_cache_capacity"} {
		fam := fams[name]
		if fam == nil {
			t.Fatalf("family %s missing", name)
		}
		if _, n := sampleValue(fam, name, nil); n != 1 {
			t.Fatalf("%s has %d samples, want exactly 1 (shared cache)", name, n)
		}
		if _, n := sampleValue(fam, name, map[string]string{"cache": "shared"}); n != 1 {
			t.Fatalf("%s is not labeled cache=shared", name)
		}
	}
	if v, _ := sampleValue(fams["tc_federation_networks"], "tc_federation_networks", nil); v != float64(len(fedSeeds)) {
		t.Fatalf("tc_federation_networks = %v, want %d", v, len(fedSeeds))
	}
	if v, _ := sampleValue(fams["tc_federation_queryalls_total"], "tc_federation_queryalls_total", nil); v != 1 {
		t.Fatalf("tc_federation_queryalls_total = %v, want 1", v)
	}
}

// TestHealthzPayload checks the structured health answer on both server
// shapes.
func TestHealthzPayload(t *testing.T) {
	s, _ := newObservedServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" || h.GoVersion == "" || h.UptimeSeconds < 0 {
		t.Fatalf("degenerate health %+v", h)
	}
	if len(h.Networks) != 1 || !h.Networks[0].Ready || h.Networks[0].Shards <= 0 {
		t.Fatalf("health networks = %+v", h.Networks)
	}

	fs, _, _ := newFederatedServer(t, federation.Options{CacheSize: 16})
	rec = get(t, fs, "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("decode federated healthz: %v", err)
	}
	if len(h.Networks) != len(fedSeeds) {
		t.Fatalf("federated health lists %d networks, want %d", len(h.Networks), len(fedSeeds))
	}
	for _, n := range h.Networks {
		if n.Name == "" || !n.Ready || !n.Lazy {
			t.Fatalf("federated network health %+v", n)
		}
	}
}

// TestObservabilityDisabled checks the unobserved server: routes stay
// registered but answer 404, and queries still work.
func TestObservabilityDisabled(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := get(t, s, "/metrics"); rec.Code != http.StatusNotFound {
		t.Fatalf("/metrics on unobserved server = %d, want 404", rec.Code)
	}
	if rec := get(t, s, "/api/v1/slowlog"); rec.Code != http.StatusNotFound {
		t.Fatalf("/api/v1/slowlog on unobserved server = %d, want 404", rec.Code)
	}
	if rec := getWithID(t, s, "/api/v1/query?alpha=0.2", "plain-1"); rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
}

// TestDeltaNodeCountersAreExported applies an update through an observed
// server and checks that /metrics splits the rebuilt shards' nodes by origin,
// in agreement with /api/v1/enginestats.
func TestDeltaNodeCountersAreExported(t *testing.T) {
	nw := buildUpdatableNetwork(t, 11)
	o := obs.NewObserver(obs.ObserverOptions{})
	tree := tctree.Build(nw, tctree.BuildOptions{})
	s, _ := testNetwork{Built: builtIndex(t, nw, tctree.BuildOptions{}), NetworkOptions: federation.NetworkOptions{Network: nw}, Server: Options{Obs: o}}.serve(t)
	// A new vertex carrying one item: the root of that item's shard is
	// recomputed, the rest of the shard is reused.
	var item string
	for _, root := range tree.Root().Children {
		if len(root.Children) > 0 {
			item = strconv.Itoa(int(root.Item))
			break
		}
	}
	body, _ := json.Marshal(UpdateRequest{AddVertices: 1,
		AddTransactions: []UpdateTransaction{{Vertex: nw.NumVertices(), Items: []string{item}}}})
	if rec := post(t, s, "/api/v1/update", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("update status = %d, body %s", rec.Code, rec.Body.String())
	}
	var stats engine.Stats
	if err := json.Unmarshal(get(t, s, "/api/v1/enginestats").Body.Bytes(), &stats); err != nil {
		t.Fatalf("enginestats: %v", err)
	}
	if stats.DeltaNodesRecomputed == 0 || stats.DeltaNodesReused == 0 {
		t.Fatalf("enginestats counts %d recomputed and %d reused nodes, want both positive", stats.DeltaNodesRecomputed, stats.DeltaNodesReused)
	}
	fam := scrape(t, s)["tc_engine_delta_nodes_total"]
	for kind, want := range map[string]uint64{"recomputed": stats.DeltaNodesRecomputed, "reused": stats.DeltaNodesReused} {
		if v, n := sampleValue(fam, "tc_engine_delta_nodes_total", map[string]string{"network": treeNetwork, "kind": kind}); n != 1 || v != float64(want) {
			t.Fatalf("tc_engine_delta_nodes_total{kind=%q} = %v (%d samples), want %d", kind, v, n, want)
		}
	}
	// The new vertex joins no community of the shard's root: every edge of
	// the root's truss is carried over.
	if stats.DeltaEdgesCarried == 0 {
		t.Fatalf("enginestats counts %d carried edges, want them positive", stats.DeltaEdgesCarried)
	}
	fam = scrape(t, s)["tc_engine_delta_edges_total"]
	for kind, want := range map[string]uint64{"peeled": stats.DeltaEdgesPeeled, "carried": stats.DeltaEdgesCarried} {
		if v, n := sampleValue(fam, "tc_engine_delta_edges_total", map[string]string{"network": treeNetwork, "kind": kind}); n != 1 || v != float64(want) {
			t.Fatalf("tc_engine_delta_edges_total{kind=%q} = %v (%d samples), want %d", kind, v, n, want)
		}
	}
}
