package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/tctree"
)

// The golden bodies under testdata/golden pin the wire format: they were
// recorded from the map-based read path (the parent of the ordered-layout
// read kernel) and every later change to how answers are derived must
// reproduce them byte for byte, queryMicros aside. Regenerate them only for a
// deliberate wire-format change:
//
//	go test ./internal/server -run TestGoldenBodies -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current responses")

var nextCursorField = regexp.MustCompile(`"nextCursor":"([^"]+)"`)

// goldenRequest is one recorded exchange. A request whose URL holds
// "{cursor}" resumes the nextCursor of the request before it.
type goldenRequest struct {
	method, url, body string
}

func goldenRequests(network, pattern, subPattern string, vertex int, alpha string) []goldenRequest {
	base := "/api/v1/" + network
	p := url.QueryEscape(pattern)
	return []goldenRequest{
		{"GET", base + "/query?pattern=" + p + "&alpha=" + alpha, ""},
		{"GET", base + "/query?pattern=" + p + "&alpha=0", ""},
		{"GET", base + "/query?alpha=" + alpha, ""},
		{"GET", base + "/query?pattern=" + url.QueryEscape(subPattern) + "&alpha=0&contains=true", ""},
		{"GET", base + "/query?alpha=" + alpha + "&k=5", ""},
		{"GET", base + "/query?pattern=" + p + "&alpha=0&k=3", ""},
		{"GET", base + "/query?alpha=" + alpha + "&k=5&stream=1", ""},
		{"GET", base + "/query?alpha=" + alpha + "&stream=1", ""},
		{"GET", base + "/query?alpha=" + alpha + "&limit=3", ""},
		{"GET", base + "/query?limit=3&cursor={cursor}", ""},
		{"GET", base + "/query?alpha=" + alpha + "&k=5&limit=2", ""},
		{"GET", base + "/query?limit=2&cursor={cursor}", ""},
		{"GET", base + "/query?alpha=" + alpha + "&k=5&limit=2&stream=1", ""},
		{"GET", base + "/query?limit=2&stream=1&cursor={cursor}", ""},
		{"POST", base + "/batch", `{"queries":[{"alpha":` + alpha + `},{"pattern":[` + quoteFields(pattern) + `],"alpha":0},{"alpha":` + alpha + `}]}`},
		{"GET", base + fmt.Sprintf("/vertex?id=%d&alpha=%s", vertex, alpha), ""},
		{"GET", base + fmt.Sprintf("/vertex?id=%d&pattern=%s&alpha=0", vertex, p), ""},
	}
}

func quoteFields(pattern string) string {
	var quoted []string
	for _, f := range strings.Split(pattern, ",") {
		b, _ := json.Marshal(f)
		quoted = append(quoted, string(b))
	}
	return strings.Join(quoted, ",")
}

// goldenFederation attaches the paper example (numeric items and vertices)
// and the co-author analogue at test scale (named items and authors), eager
// over the built trees or lazy over their written indexes.
func goldenFederation(t *testing.T, lazy bool) *Server {
	t.Helper()
	d, err := gen.AMiner(0.08)
	if err != nil {
		t.Fatalf("AMiner: %v", err)
	}
	fed := federation.New(federation.Options{CacheSize: 64})
	for _, n := range []struct {
		name string
		idx  *tctree.Index
		opts federation.NetworkOptions
	}{
		{"paper", builtIndex(t, dbnet.PaperExample(), tctree.BuildOptions{}), federation.NetworkOptions{}},
		{"aminer", builtIndex(t, d.Network, tctree.BuildOptions{MaxDepth: 3}),
			federation.NetworkOptions{Dictionary: d.Dictionary, VertexNames: d.AuthorNames}},
	} {
		if !lazy {
			if err := fed.AttachBuilt(n.name, n.idx, n.opts); err != nil {
				t.Fatalf("AttachBuilt(%s): %v", n.name, err)
			}
			continue
		}
		dir := t.TempDir()
		if _, err := n.idx.Write(dir); err != nil {
			t.Fatalf("Write(%s): %v", n.name, err)
		}
		idx, err := tctree.OpenSharded(dir)
		if err != nil {
			t.Fatalf("OpenSharded(%s): %v", n.name, err)
		}
		if err := fed.AttachIndex(n.name, idx, n.opts); err != nil {
			t.Fatalf("AttachIndex(%s): %v", n.name, err)
		}
	}
	s, err := New(nil, Options{Federation: fed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestGoldenBodies replays the recorded requests against an eager and a lazy
// server, twice each (the second pass is answered from the result cache where
// the route caches), and requires every body to equal its golden byte for
// byte once queryMicros is zeroed.
func TestGoldenBodies(t *testing.T) {
	files := []struct {
		name     string
		requests []goldenRequest
	}{
		{"paper", goldenRequests("paper", "1,2", "1", 0, "0.1")},
		{"aminer", goldenRequests("aminer", "data mining,sequential pattern", "data mining", 3, "0.2")},
		{"queryall", []goldenRequest{
			{"GET", "/api/v1/queryall?alpha=0.15&k=8", ""},
			{"GET", "/api/v1/queryall?pattern=1,2&alpha=0&k=4", ""},
			{"GET", "/api/v1/queryall?pattern=1,2&alpha=0.1", ""},
			{"GET", "/api/v1/queryall?alpha=0.15&k=8&stream=1", ""},
			{"GET", "/api/v1/queryall?pattern=1,2&alpha=0.1&stream=1", ""},
		}},
	}
	servers := map[string]*Server{"eager": goldenFederation(t, false), "lazy": goldenFederation(t, true)}
	for _, f := range files {
		path := filepath.Join("testdata", "golden", f.name+".golden")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, replayGolden(t, servers["eager"], f.requests), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (record it with -update-golden)", err)
		}
		for _, mode := range []string{"eager", "lazy"} {
			for pass := 1; pass <= 2; pass++ {
				if got := replayGolden(t, servers[mode], f.requests); !bytes.Equal(got, want) {
					t.Errorf("%s, %s server, pass %d: responses differ from %s\n%s", f.name, mode, pass, path, firstDifference(got, want))
				}
			}
		}
	}
}

// replayGolden issues the requests in order — each must answer 200 — and
// renders the exchange the way the golden files store it: a
// "### METHOD URL [BODY]" line, then the normalized response body verbatim.
func replayGolden(t *testing.T, s *Server, requests []goldenRequest) []byte {
	t.Helper()
	var out bytes.Buffer
	nextCursor := ""
	for _, gr := range requests {
		target := gr.url
		if strings.Contains(target, "{cursor}") {
			if nextCursor == "" {
				t.Fatalf("%s: the request before it minted no cursor", gr.url)
			}
			target = strings.ReplaceAll(target, "{cursor}", nextCursor)
		}
		req := httptest.NewRequest(gr.method, target, strings.NewReader(gr.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s = %d, body %s", gr.method, target, rec.Code, rec.Body.String())
		}
		body := normalize(rec.Body.String())
		fmt.Fprintf(&out, "### %s %s %s\n%s", gr.method, target, gr.body, body)
		nextCursor = ""
		if m := nextCursorField.FindStringSubmatch(body); m != nil {
			nextCursor = m[1]
		}
	}
	return out.Bytes()
}

// firstDifference renders the first differing line of two exchanges.
func firstDifference(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %.400s\nwant: %.400s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
