package experiments

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

// tinyConfig keeps the experiment harness fast enough for unit tests while
// still exercising every code path.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.08
	cfg.Alphas = []float64{0, 0.3, 1.0}
	cfg.Epsilons = []float64{0.1, 0.3}
	cfg.MiningSampleEdges = map[string]int{"BK": 150, "GW": 150, "AMINER": 120}
	cfg.EdgeBudgets = []int{50, 150}
	cfg.MaxPatternLength = 3
	cfg.QueryAlphaSteps = 4
	cfg.QueriesPerPoint = 3
	return cfg
}

func TestTable2(t *testing.T) {
	s := NewSuite(tinyConfig())
	rows, err := s.Table2()
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Vertices <= 0 || r.Edges <= 0 || r.Transactions <= 0 || r.ItemsUnique <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.ItemsTotal < r.ItemsUnique {
			t.Fatalf("items total < unique in %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable2(&buf, rows); err != nil {
		t.Fatalf("WriteTable2: %v", err)
	}
	if !strings.Contains(buf.String(), "AMINER") {
		t.Fatalf("formatted table missing dataset name:\n%s", buf.String())
	}
}

func TestFigure3ShapesHold(t *testing.T) {
	s := NewSuite(tinyConfig())
	rows, err := s.Figure3()
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(rows) == 0 {
		t.Fatalf("no rows")
	}

	// Index rows by (dataset, method, alpha).
	type key struct {
		ds, m string
		a     float64
	}
	idx := make(map[key]Figure3Row)
	for _, r := range rows {
		idx[key{r.Dataset, r.Method, r.Alpha}] = r
	}
	cfg := s.Config
	for _, ds := range MiningDatasets() {
		for _, alpha := range cfg.Alphas {
			tcfa, okA := idx[key{ds, "TCFA", alpha}]
			tcfi, okI := idx[key{ds, "TCFI", alpha}]
			if !okA || !okI {
				t.Fatalf("missing TCFA/TCFI rows for %s α=%v", ds, alpha)
			}
			// Exactness: TCFA and TCFI agree on NP, NV, NE.
			if tcfa.NP != tcfi.NP || tcfa.NV != tcfi.NV || tcfa.NE != tcfi.NE {
				t.Fatalf("%s α=%v: TCFA (%d,%d,%d) and TCFI (%d,%d,%d) disagree",
					ds, alpha, tcfa.NP, tcfa.NV, tcfa.NE, tcfi.NP, tcfi.NV, tcfi.NE)
			}
			// TCFI never runs MPTD more often than TCFA.
			if tcfi.MPTDCalls > tcfa.MPTDCalls {
				t.Fatalf("%s α=%v: TCFI ran MPTD more often than TCFA", ds, alpha)
			}
			// TCS never finds more patterns than the exact methods.
			for _, eps := range cfg.Epsilons {
				tcs, ok := idx[key{ds, tcsName(eps), alpha}]
				if !ok {
					t.Fatalf("missing TCS row for %s α=%v ε=%v", ds, alpha, eps)
				}
				if tcs.NP > tcfi.NP {
					t.Fatalf("%s α=%v: TCS(ε=%v) found %d patterns, exact found %d",
						ds, alpha, eps, tcs.NP, tcfi.NP)
				}
			}
		}
		// NP is non-increasing in α for the exact methods.
		prev := -1
		for _, alpha := range cfg.Alphas {
			np := idx[key{ds, "TCFI", alpha}].NP
			if prev >= 0 && np > prev {
				t.Fatalf("%s: NP grew from %d to %d as α increased to %v", ds, prev, np, alpha)
			}
			prev = np
		}
	}
	var buf bytes.Buffer
	if err := WriteFigure3(&buf, rows); err != nil {
		t.Fatalf("WriteFigure3: %v", err)
	}
}

func tcsName(eps float64) string {
	switch eps {
	case 0.1:
		return "TCS(ε=0.1)"
	case 0.2:
		return "TCS(ε=0.2)"
	case 0.3:
		return "TCS(ε=0.3)"
	}
	return ""
}

func TestFigure4ShapesHold(t *testing.T) {
	s := NewSuite(tinyConfig())
	rows, err := s.Figure4()
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	if len(rows) == 0 {
		t.Fatalf("no rows")
	}
	// For every dataset, NP with TCFI is non-decreasing in the sample size,
	// and TCFA finds the same NP as TCFI on every sample.
	perDataset := map[string][]Figure4Row{}
	for _, r := range rows {
		perDataset[r.Dataset] = append(perDataset[r.Dataset], r)
	}
	for ds, rs := range perDataset {
		byMethod := map[string]map[int]Figure4Row{}
		for _, r := range rs {
			if byMethod[r.Method] == nil {
				byMethod[r.Method] = map[int]Figure4Row{}
			}
			byMethod[r.Method][r.SampledEdges] = r
		}
		for size, fi := range byMethod["TCFI"] {
			fa, ok := byMethod["TCFA"][size]
			if !ok {
				t.Fatalf("%s: missing TCFA row for size %d", ds, size)
			}
			if fa.NP != fi.NP {
				t.Fatalf("%s size %d: TCFA NP=%d, TCFI NP=%d", ds, size, fa.NP, fi.NP)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteFigure4(&buf, rows); err != nil {
		t.Fatalf("WriteFigure4: %v", err)
	}
}

func TestTable3AndFigure5(t *testing.T) {
	s := NewSuite(tinyConfig())
	t3, err := s.Table3()
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(t3) != 4 {
		t.Fatalf("expected 4 Table 3 rows, got %d", len(t3))
	}
	for _, r := range t3 {
		if r.Nodes <= 0 {
			t.Fatalf("dataset %s indexed no nodes", r.Dataset)
		}
		if r.IndexingSeconds < 0 {
			t.Fatalf("negative indexing time")
		}
	}

	qba, err := s.Figure5QBA()
	if err != nil {
		t.Fatalf("Figure5QBA: %v", err)
	}
	if len(qba) == 0 {
		t.Fatalf("no QBA rows")
	}
	// Retrieved nodes are non-increasing in α_q per dataset, at α_q = 0
	// they equal the node count of the tree, and every point of the sweep
	// lies below α*, so it retrieves something.
	nodesByDataset := map[string]int{}
	for _, r := range t3 {
		nodesByDataset[r.Dataset] = r.Nodes
	}
	prev := map[string]int{}
	seen := map[string]bool{}
	for _, r := range qba {
		if r.RetrievedNodes < 1 {
			t.Fatalf("%s: QBA point α=%v retrieves nothing", r.Dataset, r.AlphaQ)
		}
		if !seen[r.Dataset] {
			seen[r.Dataset] = true
			if r.AlphaQ != 0 || r.RetrievedNodes != nodesByDataset[r.Dataset] {
				t.Fatalf("%s: first QBA point should retrieve every node (%d), got %d at α=%v",
					r.Dataset, nodesByDataset[r.Dataset], r.RetrievedNodes, r.AlphaQ)
			}
		} else if r.RetrievedNodes > prev[r.Dataset] {
			t.Fatalf("%s: retrieved nodes grew as α_q increased", r.Dataset)
		}
		prev[r.Dataset] = r.RetrievedNodes
	}

	qbp, err := s.Figure5QBP(context.Background())
	if err != nil {
		t.Fatalf("Figure5QBP: %v", err)
	}
	if len(qbp) == 0 {
		t.Fatalf("no QBP rows")
	}
	for _, r := range qbp {
		if r.PatternLength < 1 || r.RetrievedNodes < 1 {
			t.Fatalf("degenerate QBP row %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable3(&buf, t3); err != nil {
		t.Fatalf("WriteTable3: %v", err)
	}
	if err := WriteFigure5(&buf, append(qba, qbp...)); err != nil {
		t.Fatalf("WriteFigure5: %v", err)
	}
}

func TestCaseStudy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.15 // the case study needs a few named research groups
	s := NewSuite(cfg)
	comms, err := s.CaseStudy(6)
	if err != nil {
		t.Fatalf("CaseStudy: %v", err)
	}
	if len(comms) == 0 {
		t.Fatalf("case study found no communities")
	}
	if len(comms) > 6 {
		t.Fatalf("case study returned more communities than requested")
	}
	for _, c := range comms {
		if len(c.Theme) < 2 {
			t.Fatalf("case-study community with trivial theme: %+v", c)
		}
		if len(c.Authors) < 3 {
			t.Fatalf("case-study community with too few authors: %+v", c)
		}
	}
	var buf bytes.Buffer
	if err := WriteCaseStudy(&buf, comms); err != nil {
		t.Fatalf("WriteCaseStudy: %v", err)
	}
	if !strings.Contains(buf.String(), "authors:") {
		t.Fatalf("case study output missing authors:\n%s", buf.String())
	}
}

func TestQueryPatternOfLength(t *testing.T) {
	s := NewSuite(tinyConfig())
	eng, err := s.Engine("BK")
	if err != nil {
		t.Fatalf("Engine: %v", err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	for length := 1; length <= eng.Depth(); length++ {
		if p, ok, err := QueryPatternOfLength(ctx, eng, length, rng); err != nil || !ok || p.Len() != length {
			t.Fatalf("expected a length-%d pattern, got %v (%v, %v)", length, p, ok, err)
		}
	}
	if _, ok, err := QueryPatternOfLength(ctx, eng, 99, rng); ok || err != nil {
		t.Fatalf("length 99 should not exist (%v)", err)
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(tinyConfig())
	d1, err := s.Dataset("BK")
	if err != nil {
		t.Fatalf("Dataset: %v", err)
	}
	d2, err := s.Dataset("BK")
	if err != nil {
		t.Fatalf("Dataset: %v", err)
	}
	if d1.Network != d2.Network {
		t.Fatalf("dataset cache not reused")
	}
	t1, err := s.Index("BK")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	t2, err := s.Index("BK")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	if t1 != t2 {
		t.Fatalf("index cache not reused")
	}
	if _, err := s.Dataset("nope"); err == nil {
		t.Fatalf("unknown dataset should error")
	}
}
