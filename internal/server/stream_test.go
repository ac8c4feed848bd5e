package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"themecomm/internal/federation"
)

// This file tests the HTTP streaming surface end to end: NDJSON framing,
// cursor pagination (including the 410 a moved index answers to a stale
// cursor), and the queryall stream — each compared against the materializing
// response of the same query.

// ndjsonLines is a streaming response body decoded into its typed lines.
type ndjsonLines struct {
	header      StreamHeader
	communities []StreamCommunity
	trailer     *StreamTrailer
	errLine     *StreamError
}

func parseNDJSON(t *testing.T, body string) ndjsonLines {
	t.Helper()
	var out ndjsonLines
	sawHeader := false
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &kind); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		switch kind.Type {
		case "header":
			if sawHeader {
				t.Fatalf("second header line")
			}
			sawHeader = true
			if err := json.Unmarshal([]byte(line), &out.header); err != nil {
				t.Fatalf("bad header: %v", err)
			}
		case "community":
			if out.trailer != nil || out.errLine != nil {
				t.Fatalf("community line after the terminal line")
			}
			var c StreamCommunity
			if err := json.Unmarshal([]byte(line), &c); err != nil {
				t.Fatalf("bad community: %v", err)
			}
			out.communities = append(out.communities, c)
		case "trailer":
			var tr StreamTrailer
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				t.Fatalf("bad trailer: %v", err)
			}
			out.trailer = &tr
		case "error":
			var se StreamError
			if err := json.Unmarshal([]byte(line), &se); err != nil {
				t.Fatalf("bad error line: %v", err)
			}
			out.errLine = &se
		default:
			t.Fatalf("unknown line type %q in %q", kind.Type, line)
		}
	}
	if !sawHeader {
		t.Fatalf("stream had no header line")
	}
	return out
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}

func sameCommunities(t *testing.T, label string, got []StreamCommunity, want []CommunityResponse) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: streamed %d communities, materialized %d", label, len(got), len(want))
	}
	for i := range got {
		if !jsonEqual(t, got[i].CommunityResponse, want[i]) {
			g, _ := json.Marshal(got[i].CommunityResponse)
			w, _ := json.Marshal(want[i])
			t.Fatalf("%s: community %d differs:\nstream:      %s\nmaterialize: %s", label, i, g, w)
		}
	}
}

// TestStreamNDJSONParity: ?stream=1 must deliver exactly the materializing
// answer — same communities, same order, same traversal counters — framed as
// header/community.../trailer NDJSON, for plain, top-k and patterned queries.
func TestStreamNDJSONParity(t *testing.T) {
	s, _ := newTestServer(t)
	for _, params := range []string{
		"alpha=0.2",
		"alpha=0.1&k=5",
		"alpha=0.2&k=1",
		"pattern=data+mining,sequential+pattern&alpha=0.1",
	} {
		rec := get(t, s, "/api/v1/query?"+params)
		if rec.Code != http.StatusOK {
			t.Fatalf("materializing query: %d", rec.Code)
		}
		var want QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}

		srec := get(t, s, "/api/v1/query?"+params+"&stream=1")
		if srec.Code != http.StatusOK {
			t.Fatalf("stream query: %d, body %s", srec.Code, srec.Body.String())
		}
		if ct := srec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type = %q", ct)
		}
		lines := parseNDJSON(t, srec.Body.String())
		if lines.errLine != nil {
			t.Fatalf("stream errored: %+v", lines.errLine)
		}
		if lines.trailer == nil {
			t.Fatalf("stream had no trailer")
		}
		sameCommunities(t, params, lines.communities, want.Communities)
		if lines.header.Alpha != want.Alpha || lines.header.TopK != want.TopK {
			t.Fatalf("header %+v does not match query alpha=%g topK=%d", lines.header, want.Alpha, want.TopK)
		}
		if !jsonEqual(t, lines.header.Pattern, want.Pattern) {
			t.Fatalf("header pattern %v, query echoed %v", lines.header.Pattern, want.Pattern)
		}
		if lines.trailer.Emitted != len(want.Communities) {
			t.Fatalf("trailer emitted %d, want %d", lines.trailer.Emitted, len(want.Communities))
		}
		if want.TopK == 0 {
			// Plain streams visit exactly what the materializing query visits.
			if lines.trailer.RetrievedNodes != want.RetrievedNodes || lines.trailer.VisitedNodes != want.VisitedNodes {
				t.Fatalf("trailer counters %+v; query counters retrieved=%d visited=%d",
					lines.trailer, want.RetrievedNodes, want.VisitedNodes)
			}
		} else if lines.trailer.RetrievedNodes > want.RetrievedNodes || lines.trailer.VisitedNodes > want.VisitedNodes {
			// Top-k streams short-circuit shards, so they may visit fewer
			// nodes than the materializing top-k — never more.
			t.Fatalf("top-k stream visited more than materializing: %+v vs retrieved=%d visited=%d",
				lines.trailer, want.RetrievedNodes, want.VisitedNodes)
		}
		if lines.trailer.NextCursor != "" {
			t.Fatalf("unlimited stream minted a cursor")
		}
	}
}

// TestStreamShortCircuitOverHTTP: a selective top-k stream against a lazy
// server must report shardsShortCircuited > 0 in its trailer — the HTTP-level
// proof that scheduled shards were ruled out by the α* bound and never loaded
// from disk.
func TestStreamShortCircuitOverHTTP(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s, n := testNetwork{Index: openIndex(t, buildFedTree(t, seed))}.serve(t)
		rec := get(t, s, "/api/v1/query?alpha=0&k=1&stream=1")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
		}
		lines := parseNDJSON(t, rec.Body.String())
		if lines.trailer == nil || lines.errLine != nil {
			t.Fatalf("malformed stream: %s", rec.Body.String())
		}
		if lines.trailer.ShardsShortCircuited == 0 {
			continue
		}
		if len(lines.communities) != 1 {
			t.Fatalf("k=1 stream emitted %d communities", len(lines.communities))
		}
		// The short-circuited shards never reached the disk.
		stats := n.Engine().Stats()
		if stats.LazyLoads >= uint64(stats.Shards) {
			t.Fatalf("every shard was loaded (%d of %d)", stats.LazyLoads, stats.Shards)
		}
		return
	}
	t.Fatalf("no seed in 1..20 short-circuited over HTTP")
}

// TestCursorPagination: paging with ?limit walks the whole answer; the
// concatenated pages equal the unpaginated response and the last page mints
// no cursor. The cursor alone carries the query — follow-up requests send no
// pattern/alpha/k parameters.
func TestCursorPagination(t *testing.T) {
	s, _ := newTestServer(t)
	for _, tc := range []struct {
		params  string
		perPage string
		minSize int
	}{
		{"alpha=0", "2", 3},
		{"alpha=0&k=7", "2", 3},
		{"pattern=data+mining,sequential+pattern&alpha=0", "1", 1},
	} {
		rec := get(t, s, "/api/v1/query?"+tc.params)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", tc.params, rec.Code)
		}
		var want QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if len(want.Communities) < tc.minSize {
			t.Fatalf("%s: answer too small (%d) to exercise pagination", tc.params, len(want.Communities))
		}
		if want.NextCursor != "" {
			t.Fatalf("%s: unlimited query minted a cursor", tc.params)
		}

		var pages []CommunityResponse
		url := "/api/v1/query?" + tc.params + "&limit=" + tc.perPage
		for hop := 0; ; hop++ {
			if hop > len(want.Communities) {
				t.Fatalf("%s: pagination did not terminate", tc.params)
			}
			prec := get(t, s, url)
			if prec.Code != http.StatusOK {
				t.Fatalf("%s page %d: status %d, body %s", tc.params, hop, prec.Code, prec.Body.String())
			}
			var page QueryResponse
			if err := json.Unmarshal(prec.Body.Bytes(), &page); err != nil {
				t.Fatal(err)
			}
			if len(page.Communities) > 2 {
				t.Fatalf("%s page %d has %d communities", tc.params, hop, len(page.Communities))
			}
			pages = append(pages, page.Communities...)
			if page.NextCursor == "" {
				break
			}
			url = "/api/v1/query?limit=" + tc.perPage + "&cursor=" + page.NextCursor
		}
		if len(pages) != len(want.Communities) {
			t.Fatalf("%s: pages delivered %d communities, unpaginated answer has %d",
				tc.params, len(pages), len(want.Communities))
		}
		for i := range pages {
			if !jsonEqual(t, pages[i], want.Communities[i]) {
				g, _ := json.Marshal(pages[i])
				w, _ := json.Marshal(want.Communities[i])
				t.Fatalf("%s community %d: page gave %s, unpaginated %s", tc.params, i, g, w)
			}
		}
	}
}

// TestStreamNDJSONPaging: the NDJSON form of pagination — a limited stream
// carries its next cursor in the trailer, and resuming over NDJSON walks the
// same answer.
func TestStreamNDJSONPaging(t *testing.T) {
	s, _ := newTestServer(t)
	rec := get(t, s, "/api/v1/query?alpha=0")
	var want QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	var got []StreamCommunity
	url := "/api/v1/query?alpha=0&stream=1&limit=2"
	for hop := 0; ; hop++ {
		if hop > len(want.Communities) {
			t.Fatalf("NDJSON pagination did not terminate")
		}
		srec := get(t, s, url)
		if srec.Code != http.StatusOK {
			t.Fatalf("page %d: %d", hop, srec.Code)
		}
		lines := parseNDJSON(t, srec.Body.String())
		if lines.errLine != nil || lines.trailer == nil {
			t.Fatalf("page %d malformed: %s", hop, srec.Body.String())
		}
		got = append(got, lines.communities...)
		if lines.trailer.NextCursor == "" {
			break
		}
		url = "/api/v1/query?stream=1&limit=2&cursor=" + lines.trailer.NextCursor
	}
	sameCommunities(t, "ndjson pages", got, want.Communities)
}

// TestCursorBadRequests: malformed cursors, foreign-network cursors and bad
// stream/limit parameters are 400s.
func TestCursorBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	for _, url := range []string{
		"/api/v1/query?cursor=%21%21%21",
		"/api/v1/query?cursor=" + encodeCursor(cursor{V: 99}),
		"/api/v1/query?cursor=" + encodeCursor(cursor{V: cursorVersion, Network: "elsewhere"}),
		"/api/v1/query?alpha=0.2&stream=yes",
		"/api/v1/query?alpha=0.2&limit=0",
		"/api/v1/query?alpha=0.2&limit=nope",
	} {
		rec := get(t, s, url)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", url, rec.Code, rec.Body.String())
		}
		assertJSONError(t, rec)
	}
}

// TestCursorExpiresWithEpoch: a cursor minted before an applied delta is
// answered with 410 Gone — the remaining pages could mix index epochs.
func TestCursorExpiresWithEpoch(t *testing.T) {
	s, _, _ := newUpdatableServer(t, 11)
	rec := get(t, s, "/api/v1/query?alpha=0&limit=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("first page: %d, body %s", rec.Code, rec.Body.String())
	}
	var page QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.NextCursor == "" {
		t.Fatalf("first page minted no cursor; answer too small")
	}

	// The cursor is valid while the index holds still.
	if rec := get(t, s, "/api/v1/query?cursor="+page.NextCursor+"&limit=1"); rec.Code != http.StatusOK {
		t.Fatalf("pre-delta resume: %d, body %s", rec.Code, rec.Body.String())
	}

	urec := post(t, s, "/api/v1/update", `{"addVertices": 1, "addEdges": [[0,16]]}`)
	if urec.Code != http.StatusOK {
		t.Fatalf("update: %d, body %s", urec.Code, urec.Body.String())
	}

	// JSON resume: 410. Both resume arms pass only because the cursor's
	// epoch is compared with the epoch the resumed stream captured; comparing
	// the stream with the engine's current epoch would accept this cursor.
	rec = get(t, s, "/api/v1/query?cursor="+page.NextCursor+"&limit=1")
	if rec.Code != http.StatusGone {
		t.Fatalf("post-delta resume: status %d, want 410 (body %s)", rec.Code, rec.Body.String())
	}
	assertJSONError(t, rec)
	// NDJSON resume: the stale cursor is caught once the stream is captured
	// but before the response is committed, so the 410 still travels as a
	// status code, not an in-band error line.
	rec = get(t, s, "/api/v1/query?cursor="+page.NextCursor+"&limit=1&stream=1")
	if rec.Code != http.StatusGone {
		t.Fatalf("post-delta NDJSON resume: status %d, want 410", rec.Code)
	}
}

// TestQueryAllStream: the federated NDJSON stream must deliver exactly the
// materializing queryall answer — the cross-network cohesion merge when k is
// given, the per-network concatenation in name order otherwise — and reject
// cursors outright.
func TestQueryAllStream(t *testing.T) {
	s, _, _ := newFederatedServer(t, federation.Options{CacheSize: 16})

	// Plain: the stream equals the per-network answers flattened in order.
	rec := get(t, s, "/api/v1/queryall?alpha=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("queryall: %d", rec.Code)
	}
	var plain QueryAllResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	type tagged struct {
		network string
		c       CommunityResponse
	}
	var want []tagged
	for _, nr := range plain.Results {
		for _, c := range nr.Communities {
			want = append(want, tagged{nr.Network, c})
		}
	}
	srec := get(t, s, "/api/v1/queryall?alpha=0&stream=1")
	if srec.Code != http.StatusOK {
		t.Fatalf("queryall stream: %d, body %s", srec.Code, srec.Body.String())
	}
	if ct := srec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := parseNDJSON(t, srec.Body.String())
	if lines.errLine != nil || lines.trailer == nil {
		t.Fatalf("malformed queryall stream: %s", srec.Body.String())
	}
	if len(lines.communities) != len(want) {
		t.Fatalf("streamed %d communities, materialized %d", len(lines.communities), len(want))
	}
	for i := range want {
		if lines.communities[i].Network != want[i].network {
			t.Fatalf("community %d from network %q, want %q", i, lines.communities[i].Network, want[i].network)
		}
		if !jsonEqual(t, lines.communities[i].CommunityResponse, want[i].c) {
			t.Fatalf("community %d differs from queryall order", i)
		}
	}
	if lines.trailer.Emitted != len(want) {
		t.Fatalf("trailer emitted %d, want %d", lines.trailer.Emitted, len(want))
	}

	// Top-k: the stream equals the materialized cross-network merge.
	rec = get(t, s, "/api/v1/queryall?alpha=0&k=10")
	var merged QueryAllResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Communities) == 0 {
		t.Fatalf("merged top-k is empty")
	}
	srec = get(t, s, "/api/v1/queryall?alpha=0&k=10&stream=1")
	lines = parseNDJSON(t, srec.Body.String())
	if lines.errLine != nil || lines.trailer == nil {
		t.Fatalf("malformed merged stream: %s", srec.Body.String())
	}
	if len(lines.communities) != len(merged.Communities) {
		t.Fatalf("streamed %d merged communities, materialized %d", len(lines.communities), len(merged.Communities))
	}
	for i, mc := range merged.Communities {
		if lines.communities[i].Network != mc.Network || !jsonEqual(t, lines.communities[i].CommunityResponse, mc.CommunityResponse) {
			t.Fatalf("merged community %d differs from materializing queryall", i)
		}
	}

	// A limited stream stops at the limit; no cursor is minted on queryall.
	srec = get(t, s, "/api/v1/queryall?alpha=0&k=10&stream=1&limit=2")
	lines = parseNDJSON(t, srec.Body.String())
	if len(lines.communities) != 2 || lines.trailer == nil || lines.trailer.NextCursor != "" {
		t.Fatalf("limited queryall stream: %s", srec.Body.String())
	}

	// Cursors are rejected on queryall — with or without stream=1 — because
	// members move epochs independently.
	for _, url := range []string{
		"/api/v1/queryall?alpha=0&stream=1&cursor=" + encodeCursor(cursor{V: cursorVersion}),
		"/api/v1/queryall?alpha=0&cursor=" + encodeCursor(cursor{V: cursorVersion}),
	} {
		if rec := get(t, s, url); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", url, rec.Code)
		}
	}
	if rec := get(t, s, "/api/v1/queryall?alpha=0&stream=x"); rec.Code != http.StatusBadRequest {
		t.Fatalf("queryall stream=x: status %d, want 400", rec.Code)
	}

	// A limited ranked stream is the materialized merge of k = limit: the
	// first L communities of a total order are its top L.
	rec = get(t, s, "/api/v1/queryall?alpha=0&k=3")
	var top3 QueryAllResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &top3); err != nil {
		t.Fatal(err)
	}
	srec = get(t, s, "/api/v1/queryall?alpha=0&k=10&stream=1&limit=3")
	lines = parseNDJSON(t, srec.Body.String())
	if lines.errLine != nil || lines.trailer == nil || lines.header.TopK != 10 || len(top3.Communities) != 3 {
		t.Fatalf("k=10 limit=3 stream: %s", srec.Body.String())
	}
	if lines.trailer.Emitted != 3 || len(lines.communities) != 3 {
		t.Fatalf("k=10 limit=3 stream emitted %d lines: %s", len(lines.communities), srec.Body.String())
	}
	for i, mc := range top3.Communities {
		if lines.communities[i].Network != mc.Network || !jsonEqual(t, lines.communities[i].CommunityResponse, mc.CommunityResponse) {
			t.Fatalf("k=10 limit=3 stream community %d differs from the k=3 merge", i)
		}
	}

	// A plain stream over a pattern one network cannot resolve: that network
	// answers nothing, the other its own answer.
	g := goldenFederation(t, true)
	rec = get(t, g, "/api/v1/queryall?pattern=keyword-1&alpha=0.1")
	var named QueryAllResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &named); err != nil {
		t.Fatal(err)
	}
	var wantNamed []CommunityResponse
	for _, nr := range named.Results {
		if nr.Network == "paper" && len(nr.Communities) != 0 {
			t.Fatalf("paper resolved keyword-1: %s", rec.Body.String())
		}
		wantNamed = append(wantNamed, nr.Communities...)
	}
	srec = get(t, g, "/api/v1/queryall?pattern=keyword-1&alpha=0.1&stream=1")
	lines = parseNDJSON(t, srec.Body.String())
	if lines.errLine != nil || lines.trailer == nil || len(wantNamed) == 0 || len(lines.communities) != len(wantNamed) {
		t.Fatalf("streamed %d communities, materialized %d: %s", len(lines.communities), len(wantNamed), srec.Body.String())
	}
	for i, c := range lines.communities {
		if c.Network != "aminer" || !jsonEqual(t, c.CommunityResponse, wantNamed[i]) {
			t.Fatalf("community %d of the named-pattern stream differs from queryall", i)
		}
	}
}

// TestNetworkRouteStream: ?stream=1 works on the per-network route, and a
// cursor minted there names its network — replaying it against a different
// network is a 400.
func TestNetworkRouteStream(t *testing.T) {
	s, _, _ := newFederatedServer(t, federation.Options{CacheSize: 16})
	rec := get(t, s, "/api/v1/bk/query?alpha=0")
	var want QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	srec := get(t, s, "/api/v1/bk/query?alpha=0&stream=1")
	if srec.Code != http.StatusOK {
		t.Fatalf("per-network stream: %d, body %s", srec.Code, srec.Body.String())
	}
	lines := parseNDJSON(t, srec.Body.String())
	if lines.errLine != nil || lines.trailer == nil {
		t.Fatalf("malformed per-network stream: %s", srec.Body.String())
	}
	sameCommunities(t, "bk stream", lines.communities, want.Communities)
	if lines.header.Network != "bk" {
		t.Fatalf("header network %q, want bk", lines.header.Network)
	}

	// Mint a cursor on bk, replay it on gw: 400, not another network's data.
	prec := get(t, s, "/api/v1/bk/query?alpha=0&limit=1")
	var page QueryResponse
	if err := json.Unmarshal(prec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.NextCursor == "" {
		t.Fatalf("bk first page minted no cursor")
	}
	if rec := get(t, s, "/api/v1/gw/query?cursor="+page.NextCursor); rec.Code != http.StatusBadRequest {
		t.Fatalf("foreign cursor on gw: status %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/api/v1/bk/query?cursor="+page.NextCursor+"&limit=1"); rec.Code != http.StatusOK {
		t.Fatalf("cursor on its own network: status %d", rec.Code)
	}
}
