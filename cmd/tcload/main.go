// Command tcload is the served-path benchmark of themecomm: it generates a
// dataset, builds and writes its TCBIN index, spawns a real tcserver child on
// 127.0.0.1:0, drives it over HTTP from this one process with at most two
// connections, in slices between readings of a reference clock that corrects
// the times for the speed of the shared host (refserver.go), prints every
// metric by name with its unit, checks the answers against an independent
// oracle and the paper's own definition, and exits non-zero when a check
// fails. See README.md in this directory for the
// metric catalogue and the reasons behind each workload; BENCHMARK.json at
// the module root is the contract the benchmark driver reads.
//
// Usage:
//
//	go run ./cmd/tcload -workload qbp-hot -seed 1               # end-to-end metrics
//	go run ./cmd/tcload -workload mixed-rw -seed 1 -trace 1     # per-layer metrics + span file
//	go run ./cmd/tcload -workload qba-scan -runs 5 -out a.json  # medians and quartiles over fresh servers
//	go run ./cmd/tcload -compare a.json b.json                  # improved / unchanged / regressed / unresolved
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the operation sequence (datasets and key pools are fixed)")
	seconds := flag.Float64("seconds", 18, "length of the timed window in seconds, readings of the reference clock included")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics and the ladder trace")
	ops := flag.Int("ops", 0, "end the window after this many reads instead of at the deadline, so counts repeat exactly (0 = off)")
	scale := flag.Float64("scale", 1, "multiplies every workload's dataset scale; the benchmark is defined at 1")
	runs := flag.Int("runs", 1, "repeat the workload on fresh servers with seeds seed, seed+1, … and print each metric's median and quartiles")
	out := flag.String("out", "", "with -runs: also write the runs as JSON, the input of -compare")
	traceOut := flag.String("traceout", "", "span file of a traced run (default: .bench_build/tcload/trace-<workload>-<seed>.ndjson)")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments, by the bounds in BENCHMARK.json")
	refServer := flag.Bool("refserver", false, "internal: serve the reference answer until killed (the harness spawns this itself)")
	flag.Parse()

	if *refServer {
		fatal("%v", runRefServer())
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: tcload -compare old.json new.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	spec, ok := specByName(*workload)
	if !ok {
		fatal("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *scale <= 0 || *runs < 1 {
		fatal("-seconds and -scale must be positive, -runs at least 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := newEnv(ctx)
	if err != nil {
		fatal("%v", err)
	}
	cfg := config{spec: spec, seed: *seed, seconds: *seconds, maxOps: *ops, scale: *scale, trace: *trace != 0, traceOut: *traceOut}

	var results []*result
	correct := true
	for i := 0; i < *runs; i++ {
		cfg.seed = *seed + int64(i)
		res, err := runOnce(ctx, env, cfg, os.Stdout)
		if err != nil {
			stop()
			fatal("%s seed %d: %v", spec.name, cfg.seed, err)
		}
		results = append(results, res)
		correct = correct && res.Correct
	}
	if *runs > 1 {
		summarize(os.Stdout, results)
	}
	if *out != "" {
		if err := writeRuns(*out, results); err != nil {
			fatal("%v", err)
		}
	}
	// The last line of standard output is the driver's: one JSON object.
	last := results[len(results)-1]
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	sort.Strings(names)
	return names
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tcload: "+format+"\n", args...)
	os.Exit(2)
}
