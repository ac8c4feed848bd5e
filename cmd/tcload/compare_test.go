package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"same", steady, []float64{100, 100, 101, 99, 101}, "lower", 0.1, "unchanged"},
		{"slower beyond bound", steady, []float64{120, 121, 119, 122, 120}, "lower", 0.1, "regressed"},
		{"slower within bound", steady, []float64{105, 104, 106, 105, 107}, "lower", 0.1, "unchanged"},
		{"faster", steady, []float64{80, 81, 79, 82, 80}, "lower", 0.1, "improved"},
		{"throughput fell", steady, []float64{80, 81, 79, 82, 80}, "higher", 0.1, "regressed"},
		{"throughput rose", steady, []float64{120, 121, 119, 122, 120}, "higher", 0.1, "improved"},
		{"noisy and interleaved", []float64{60, 100, 140, 90, 120}, []float64{150, 70, 130, 95, 160}, "lower", 0.1, "unresolved"},
		{"noisy but every run worse", []float64{60, 100, 140, 90, 120}, []float64{300, 250, 200, 280, 260}, "lower", 0.1, "regressed"},
	} {
		if got := verdict(tc.old, tc.new, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesReportsRegression(t *testing.T) {
	mk := func(p50 float64) *result {
		return &result{Workload: "qbp-hot", Metrics: map[string]metricValue{"read_p50_ms": {Value: p50, Unit: "ms"}}}
	}
	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		var runs []*result
		for _, v := range values {
			runs = append(runs, mk(v))
		}
		path := filepath.Join(dir, name)
		if err := writeRuns(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1.00, 1.01, 0.99, 1.00, 1.02)
	b := write("b.json", 1.00, 1.02, 0.99, 1.01, 1.00)
	c := write("c.json", 1.50, 1.52, 1.49, 1.51, 1.50)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, b); err != nil || regressed {
		t.Fatalf("A/A compare: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "unchanged") {
		t.Errorf("A/A compare did not say unchanged:\n%s", out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, a, c); err != nil || !regressed {
		t.Fatalf("A/B compare: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}

// BENCHMARK.json is the driver's copy of the catalogue: same names, units,
// directions and bounds, the four workloads, and this directory as the only
// path.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bench struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Paths) != 1 || bench.Paths[0] != "cmd/tcload" {
		t.Errorf("paths = %v, want [cmd/tcload]", bench.Paths)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no rationale", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), "qbp-hot,qba-scan,lazy-churn,mixed-rw"; got != want {
		t.Errorf("workloads = %s, want %s", got, want)
	}
	check := func(kind string, defs []metricDef, got []jsonMetric) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in the catalogue, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %s/%s/%s/%g", kind, i, g, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
}
