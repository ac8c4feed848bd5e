package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for tcload when the harness spawns
// its reference server: spawnRef re-executes the running binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-refserver" {
		fatal("%v", runRefServer())
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at a
// fraction of its scale against a spawned tcserver: every metric of the
// catalogue must be reported (result.set panics on a stray name), the checks
// must pass, and an untraced run may leave no metric at zero.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns tcserver; skipped under -short")
	}
	ctx := testContext(t)
	e, err := newEnv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := io.Discard
	if testing.Verbose() {
		out = os.Stderr
	}
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			cfg := config{spec: s, seed: 1, seconds: 1.5, scale: 0.2, trace: trace,
				traceOut: filepath.Join(t.TempDir(), "spans.ndjson")}
			res, err := runOnce(ctx, e, cfg, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", s.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				if info, err := os.Stat(cfg.traceOut); err != nil || info.Size() == 0 {
					t.Errorf("%s: no span file: %v", s.name, err)
				}
				for _, name := range []string{"server.http_ms", "tctree.build_s", "trace.unaccounted_ratio"} {
					if res.Metrics[name].Value == 0 {
						t.Errorf("%s: per-layer metric %s is 0", s.name, name)
					}
				}
				continue
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g", s.name, d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
	left, err := filepath.Glob(filepath.Join(e.work, "*-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range left {
		if info, err := os.Stat(p); err == nil && info.IsDir() {
			t.Errorf("run directory %s was left behind", p)
		}
	}
}
