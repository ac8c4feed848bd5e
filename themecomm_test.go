package themecomm_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"themecomm"
)

// buildDemoNetwork constructs a small social e-commerce network through the
// public API only: two buying circles, one around {diapers, beer} and one
// around {camera, tripod}, joined by a few weak ties.
func buildDemoNetwork(t *testing.T) (*themecomm.Network, *themecomm.Dictionary) {
	t.Helper()
	dict := themecomm.NewDictionary()
	diapers := dict.Intern("diapers")
	beer := dict.Intern("beer")
	camera := dict.Intern("camera")
	tripod := dict.Intern("tripod")
	snacks := dict.Intern("snacks")

	nw := themecomm.NewNetwork(8)
	// Circle A: vertices 0-3 form a clique.
	for u := themecomm.VertexID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			nw.MustAddEdge(u, v)
		}
	}
	// Circle B: vertices 4-7 form a clique.
	for u := themecomm.VertexID(4); u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			nw.MustAddEdge(u, v)
		}
	}
	// Weak tie between the circles.
	nw.MustAddEdge(3, 4)

	addTx := func(v themecomm.VertexID, items ...themecomm.Item) {
		if err := nw.AddTransaction(v, themecomm.NewItemset(items...)); err != nil {
			t.Fatalf("AddTransaction: %v", err)
		}
	}
	for v := themecomm.VertexID(0); v < 4; v++ {
		for i := 0; i < 4; i++ {
			addTx(v, diapers, beer)
		}
		addTx(v, snacks)
	}
	for v := themecomm.VertexID(4); v < 8; v++ {
		for i := 0; i < 4; i++ {
			addTx(v, camera, tripod)
		}
		addTx(v, snacks)
	}
	return nw, dict
}

func TestPublicAPIMiningFlow(t *testing.T) {
	nw, dict := buildDemoNetwork(t)

	comms := themecomm.FindThemeCommunities(nw, 0.5)
	if len(comms) == 0 {
		t.Fatalf("expected theme communities")
	}
	// The {diapers, beer} circle must appear as a community of 4 vertices.
	diapers, _ := dict.Lookup("diapers")
	beer, _ := dict.Lookup("beer")
	target := themecomm.NewItemset(diapers, beer)
	found := false
	for _, c := range comms {
		if c.Pattern.Equal(target) && len(c.Vertices()) == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("the diapers+beer circle was not found: %v", comms)
	}

	// The three miners agree.
	exact := themecomm.MineTCS(nw, themecomm.MiningOptions{Alpha: 0.5})
	tcfa := themecomm.MineTCFA(nw, themecomm.MiningOptions{Alpha: 0.5})
	tcfi := themecomm.MineTCFI(nw, themecomm.MiningOptions{Alpha: 0.5})
	if !exact.Equal(tcfa) || !tcfa.Equal(tcfi) {
		t.Fatalf("miners disagree through the public API")
	}
}

func TestPublicAPITrussAndDecomposition(t *testing.T) {
	nw, dict := buildDemoNetwork(t)
	diapers, _ := dict.Lookup("diapers")
	beer, _ := dict.Lookup("beer")
	p := themecomm.NewItemset(diapers, beer)

	tn := themecomm.InduceThemeNetwork(nw, p)
	if tn.NumVertices() != 4 {
		t.Fatalf("theme network of %v has %d vertices, want 4", p, tn.NumVertices())
	}
	tr := themecomm.DetectMaximalPatternTruss(nw, p, 0.5)
	if tr.Empty() || tr.NumVertices() != 4 {
		t.Fatalf("maximal pattern truss wrong: %v", tr)
	}
	d := themecomm.DecomposePattern(nw, p)
	if d.Empty() {
		t.Fatalf("decomposition should not be empty")
	}
	if !d.TrussAt(0.5).Edges.Equal(tr.Edges) {
		t.Fatalf("decomposition reconstruction disagrees with direct detection")
	}
}

func TestPublicAPIIndexAndQuery(t *testing.T) {
	nw, dict := buildDemoNetwork(t)
	idx, err := themecomm.BuildIndex(nw, themecomm.TreeBuildOptions{})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.NumNodes() == 0 {
		t.Fatalf("index should hold the demo patterns")
	}

	// Persistence round trip through the public API; the reopened index
	// answers through its federation engine.
	dir := t.TempDir()
	if _, err := idx.Write(filepath.Join(dir, "demo.index")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	fed, err := themecomm.OpenFederation(dir, themecomm.FederationOptions{})
	if err != nil {
		t.Fatalf("OpenFederation: %v", err)
	}
	n, ok := fed.Network("demo")
	if !ok {
		t.Fatalf("OpenFederation did not attach demo.index: %v", fed.Names())
	}
	eng := n.Engine()
	if eng.NumNodes() != idx.NumNodes() {
		t.Fatalf("index round trip lost nodes")
	}
	camera, _ := dict.Lookup("camera")
	tripod, _ := dict.Lookup("tripod")
	qr, err := eng.QueryContext(context.Background(), themecomm.NewItemset(camera, tripod), 0.5)
	if err != nil || qr.RetrievedNodes == 0 {
		t.Fatalf("query should retrieve the camera circle (%v)", err)
	}
}

func TestPublicAPINetworkSerialization(t *testing.T) {
	nw, dict := buildDemoNetwork(t)
	var buf bytes.Buffer
	if err := themecomm.WriteNetwork(&buf, nw, dict); err != nil {
		t.Fatalf("WriteNetwork: %v", err)
	}
	got, gotDict, err := themecomm.ReadNetwork(&buf)
	if err != nil {
		t.Fatalf("ReadNetwork: %v", err)
	}
	if got.Stats() != nw.Stats() {
		t.Fatalf("network round trip changed statistics")
	}
	if gotDict.Len() != dict.Len() {
		t.Fatalf("dictionary round trip lost names")
	}
}

func TestPublicAPIGenerateDataset(t *testing.T) {
	for _, name := range []string{"BK", "GW", "AMINER", "SYN"} {
		d, err := themecomm.GenerateDataset(name, 0.05)
		if err != nil {
			t.Fatalf("GenerateDataset(%s): %v", name, err)
		}
		if d.Network.NumVertices() == 0 || d.Network.NumEdges() == 0 {
			t.Fatalf("dataset %s is degenerate", name)
		}
	}
	if _, err := themecomm.GenerateDataset("unknown", 1); err == nil {
		t.Fatalf("unknown dataset should be rejected")
	}
}
