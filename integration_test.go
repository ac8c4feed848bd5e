package themecomm_test

// End-to-end integration tests exercising the full pipeline through the
// public API: generate → persist → reload → mine → index → persist → reload →
// query → serve over HTTP. These are the flows the command-line tools compose.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"themecomm"
	"themecomm/internal/tctree"
)

func TestEndToEndPipeline(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "bk.dbnet")
	indexPath := filepath.Join(dir, "bk.index")

	// 1. Generate a dataset analogue and persist it.
	d, err := themecomm.GenerateDataset("BK", 0.1)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	if err := themecomm.WriteNetworkFile(netPath, d.Network, d.Dictionary); err != nil {
		t.Fatalf("WriteNetworkFile: %v", err)
	}

	// 2. Reload it and check it round-tripped.
	nw, dict, err := themecomm.ReadNetworkFile(netPath)
	if err != nil {
		t.Fatalf("ReadNetworkFile: %v", err)
	}
	if nw.Stats() != d.Network.Stats() || dict.Len() != d.Dictionary.Len() {
		t.Fatalf("reloaded network differs: %+v vs %+v", nw.Stats(), d.Network.Stats())
	}

	// 3. Mine it and index it; the index must agree with the miner at any α.
	const alpha = 0.2
	mined := themecomm.MineTCFI(nw, themecomm.MiningOptions{Alpha: alpha, MaxPatternLength: 3})
	indexed := tctree.Build(nw, themecomm.TreeBuildOptions{MaxDepth: 3}).QueryByAlpha(alpha)
	if indexed.RetrievedNodes != mined.NumPatterns() {
		t.Fatalf("index answer (NP=%d) differs from mining (NP=%d)", indexed.RetrievedNodes, mined.NumPatterns())
	}
	for _, tr := range indexed.Trusses {
		if want := mined.Truss(tr.Pattern); want == nil || !want.Edges.Equal(tr.Edges) {
			t.Fatalf("index truss of %v differs from the mined one", tr.Pattern)
		}
	}
	idx, err := themecomm.BuildIndex(nw, themecomm.TreeBuildOptions{MaxDepth: 3})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if _, err := idx.Write(indexPath); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// 4. Reopen the index from disk, as a network of a federation, and
	// answer the same query.
	fed := themecomm.NewFederation(themecomm.FederationOptions{})
	if err := fed.AttachIndexDir("bk", indexPath, netPath); err != nil {
		t.Fatalf("AttachIndexDir: %v", err)
	}
	bk, _ := fed.Network("bk")
	reloaded := bk.Engine()
	answer, err := reloaded.QueryContext(context.Background(), nil, alpha)
	if err != nil {
		t.Fatalf("QueryContext: %v", err)
	}
	if answer.RetrievedNodes != mined.NumPatterns() {
		t.Fatalf("reopened index retrieved %d trusses, miner found %d", answer.RetrievedNodes, mined.NumPatterns())
	}
	// What is not an index directory is refused with the rebuild command.
	if err := fed.AttachIndexDir("file", netPath, ""); err == nil || !strings.Contains(err.Error(), "tcindex -in") {
		t.Fatalf("AttachIndexDir on a regular file returned %v, want a refusal naming tcindex", err)
	}

	// 5. Serve the federation over HTTP and query it.
	handler, err := themecomm.NewQueryServer(nil, themecomm.QueryServerOptions{Federation: fed})
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var stats struct {
		Nodes int `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Nodes != reloaded.NumNodes() {
		t.Fatalf("served stats report %d nodes, tree has %d", stats.Nodes, reloaded.NumNodes())
	}

	qresp, err := http.Get(srv.URL + "/api/v1/query?alpha=0.2")
	if err != nil {
		t.Fatalf("GET query: %v", err)
	}
	defer qresp.Body.Close()
	var queryAnswer struct {
		RetrievedNodes int `json:"retrievedNodes"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&queryAnswer); err != nil {
		t.Fatalf("decode query: %v", err)
	}
	if queryAnswer.RetrievedNodes != mined.NumPatterns() {
		t.Fatalf("served query retrieved %d trusses, miner found %d", queryAnswer.RetrievedNodes, mined.NumPatterns())
	}
}

func TestEndToEndRawCheckInLoading(t *testing.T) {
	// Load a tiny raw check-in dump (the SNAP format) through the public API
	// and mine it: the pipeline a user of the real Brightkite data follows.
	edges := strings.NewReader("0\t1\n0\t2\n1\t2\n")
	checkins := strings.NewReader(strings.Join([]string{
		"0\t2010-10-17T01:00:00Z\t0\t0\tbar",
		"0\t2010-10-17T02:00:00Z\t0\t0\tclub",
		"1\t2010-10-17T01:30:00Z\t0\t0\tbar",
		"1\t2010-10-17T03:00:00Z\t0\t0\tclub",
		"2\t2010-10-17T05:00:00Z\t0\t0\tbar",
		"2\t2010-10-17T06:00:00Z\t0\t0\tclub",
	}, "\n"))
	nw, dict, err := themecomm.LoadCheckIns(edges, checkins, themecomm.CheckInLoadOptions{})
	if err != nil {
		t.Fatalf("LoadCheckIns: %v", err)
	}
	bar, _ := dict.Lookup("bar")
	club, _ := dict.Lookup("club")
	comms := themecomm.FindThemeCommunities(nw, 0.5)
	found := false
	for _, c := range comms {
		if c.Pattern.Equal(themecomm.NewItemset(bar, club)) && len(c.Vertices()) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("the bar+club trio was not recovered: %v", comms)
	}
}

func TestEndToEndCitationArchiveLoading(t *testing.T) {
	archive := strings.NewReader(strings.Join([]string{
		"#*Graph Mining at Scale",
		"#@Alice;Bob;Carol",
		"#!We study scalable graph mining with truss decomposition for community detection.",
		"",
		"#*More Graph Mining",
		"#@Alice;Bob;Carol",
		"#!Truss decomposition enables scalable community detection in graph mining.",
		"",
	}, "\n"))
	res, err := themecomm.LoadCitationArchive(archive, themecomm.CoAuthorLoadOptions{})
	if err != nil {
		t.Fatalf("LoadCitationArchive: %v", err)
	}
	if res.Network.NumVertices() != 3 || res.Network.NumEdges() != 3 {
		t.Fatalf("co-author network wrong: %v", res.Network)
	}
	mining, ok := res.Keywords.Lookup("mining")
	if !ok {
		t.Fatalf("keyword 'mining' missing")
	}
	tr := themecomm.DetectMaximalPatternTruss(res.Network, themecomm.NewItemset(mining), 0.5)
	if tr.NumVertices() != 3 {
		t.Fatalf("the three co-authors should form a truss for 'mining': %v", tr)
	}
}
