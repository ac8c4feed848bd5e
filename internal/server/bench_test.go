package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// The handler benchmarks of the read path, on the dataset and the four
// request shapes the served-path benchmark (cmd/tcload) offers — AMINER at
// scale 0.5 behind a lazy engine over its TCBIN index — driven in process
// through Server.ServeHTTP, so a change below the handler can be measured
// (and profiled) here before it is measured end to end.

// benchScanAlphas is the qba-scan α grid of cmd/tcload.
var benchScanAlphas = [...]float64{0.5, 1, 1.5, 2, 3}

// benchSite is the benchmarks' index on disk with what renders its answers.
type benchSite struct {
	dir      string
	dataset  gen.Dataset
	patterns []string // escaped pattern parameters of single-item queries
}

func newBenchSite(b *testing.B) *benchSite {
	b.Helper()
	ds, err := gen.AMiner(0.5)
	if err != nil {
		b.Fatal(err)
	}
	tree := tctree.Build(ds.Network, tctree.BuildOptions{})
	site := &benchSite{dir: b.TempDir(), dataset: ds}
	if _, err := tree.WriteShardedAs(site.dir, tctree.FormatTCBIN); err != nil {
		b.Fatal(err)
	}
	// Every eighth shard: a single-item query retrieves one node, the few
	// hundred bytes a typical qbp-hot hit renders.
	for i, st := range tree.ShardStats() {
		if i%8 == 0 {
			site.patterns = append(site.patterns, url.QueryEscape(ds.Dictionary.Names(itemset.New(st.Item))[0]))
		}
	}
	return site
}

// server returns a server over a fresh lazy network on the site's index.
// Without vertex names the vertices render as their numeric identifiers, as
// they do behind tcserver -networks.
func (site *benchSite) server(b *testing.B, cacheSize int, vertexNames bool) *Server {
	b.Helper()
	idx, err := tctree.OpenSharded(site.dir)
	if err != nil {
		b.Fatal(err)
	}
	opts := federation.NetworkOptions{Dictionary: site.dataset.Dictionary}
	if vertexNames {
		opts.VertexNames = site.dataset.AuthorNames
	}
	s, _ := testNetwork{
		Index:          idx,
		NetworkOptions: opts,
		Fed:            federation.Options{CacheSize: cacheSize},
	}.serve(b)
	return s
}

// discard is a ResponseWriter that counts the body and keeps nothing, so the
// benchmarks charge the handler, not a recorder's buffer.
type discard struct {
	header http.Header
	status int
	bytes  int64
}

func (d *discard) Header() http.Header { return d.header }
func (d *discard) WriteHeader(s int)   { d.status = s }
func (d *discard) Flush()              {}
func (d *discard) Write(p []byte) (int, error) {
	d.bytes += int64(len(p))
	return len(p), nil
}

// serveDiscarding drives one GET through the server.
func serveDiscarding(tb testing.TB, s *Server, w *discard, target string) {
	w.status = http.StatusOK
	for k := range w.header {
		delete(w.header, k)
	}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	if w.status != http.StatusOK {
		tb.Fatalf("GET %s = %d", target, w.status)
	}
}

// BenchmarkServeQuery measures the four read shapes through the handler:
// hit is a cached query-by-pattern (the qbp-hot shape); qba, topk and stream
// are an uncached query-by-alpha, materialized top-10 and streamed top-10 on
// the qba-scan α grid, every request its own cache key. qba-0.5 is qba at the
// grid's lowest α alone: the largest answer of the scan (about 3.4 MB) and
// the request that dominates its mean latency. qba-ids and topk-ids are qba
// and topk over a network without vertex names, the traffic the served-path
// benchmark sends (its tcserver -networks has none).
func BenchmarkServeQuery(b *testing.B) {
	site := newBenchSite(b)
	query := func(alpha float64, suffix string) string {
		return "/api/v1/query?alpha=" + strconv.FormatFloat(alpha, 'g', -1, 64) + suffix
	}
	scan := func(suffix string) func(i int) string {
		return func(i int) string {
			return query(benchScanAlphas[i%len(benchScanAlphas)]+1e-7*float64(i), suffix)
		}
	}
	for _, bc := range []struct {
		name        string
		cacheSize   int
		vertexNames bool
		target      func(i int) string
	}{
		{"hit", 1024, true, func(i int) string {
			return "/api/v1/query?alpha=0.1&pattern=" + site.patterns[i%len(site.patterns)]
		}},
		// A small cache: an uncached scan answer is large, and a benchmark
		// should not hold a thousand of them.
		{"qba", 8, true, scan("")},
		{"qba-0.5", 8, true, func(i int) string { return query(benchScanAlphas[0]+1e-7*float64(i), "") }},
		{"topk", 8, true, scan("&k=10")},
		{"stream", 8, true, scan("&k=10&stream=1")},
		{"qba-ids", 8, false, scan("")},
		{"topk-ids", 8, false, scan("&k=10")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := site.server(b, bc.cacheSize, bc.vertexNames)
			w := &discard{header: make(http.Header)}
			// Warm up: every shard resident, and every hit key cached.
			for i := 0; i < len(site.patterns); i++ {
				serveDiscarding(b, s, w, bc.target(i))
			}
			w.bytes = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveDiscarding(b, s, w, bc.target(i))
			}
			b.ReportMetric(float64(w.bytes)/float64(b.N), "body-B/op")
		})
	}
}

// TestCachedHitAllocations pins what a cache hit may allocate end to end
// through Server.ServeHTTP — request parse, cache lookup, name rendering and
// JSON encode of an answer that is already a list of flat records — on the
// few-hundred-byte answer of a typical single-item hit. Deriving the
// communities from cached trusses on every hit cost over twice the bound
// here.
func TestCachedHitAllocations(t *testing.T) {
	s, _ := newTestServer(t)
	w := &discard{header: make(http.Header)}
	const target = "/api/v1/query?alpha=0.1&pattern=data+mining"
	if body := get(t, s, target).Body.Len(); body < 400 {
		t.Fatalf("GET %s answers %d bytes: too small to stand for a typical hit", target, body)
	}
	allocs := testing.AllocsPerRun(200, func() { serveDiscarding(t, s, w, target) })
	if allocs > 100 {
		t.Fatalf("a cached hit on %s costs %.0f allocations, want at most 100", target, allocs)
	}
	t.Logf("%.0f allocations per cached hit", allocs)
}
