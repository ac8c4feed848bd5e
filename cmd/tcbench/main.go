// Command tcbench regenerates the tables and figures of the paper's
// evaluation (Section 7) on the generated dataset analogues and prints their
// rows. The query workloads (Figure 5 QBA/QBP and the case study) run
// through the serving engine's plan→execute path — the same code that
// answers tcserver and tcquery traffic — rather than a raw tree traversal,
// so the reported numbers reflect the served configuration (result cache
// disabled so repetitions measure execution, not cache hits). The
// experiment index is the package comment of internal/experiments; README.md
// ("Reproducing the paper's experiments") says how the harnesses relate.
//
// Usage:
//
//	tcbench -exp all                 # everything, CI-scale
//	tcbench -exp fig3 -scale 0.5     # Figure 3 at a larger scale
//	tcbench -exp table3 -full        # paper-like settings (slow)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"themecomm/internal/experiments"
	"themecomm/internal/gen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcbench: ")

	exp := flag.String("exp", "all", "experiment to run: table2, fig3, fig4, table3, fig5a, fig5b, case or all")
	scale := flag.Float64("scale", 0, "dataset scale factor (0 = the experiment default)")
	full := flag.Bool("full", false, "use paper-like settings: larger datasets, full α grid (slow)")
	maxLen := flag.Int("maxlen", 0, "maximum pattern length for the miners (0 = the experiment default)")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *full {
		cfg.Scale = 1.0
		cfg.MiningSampleEdges = map[string]int{"BK": 10000, "GW": 10000, "AMINER": 5000}
		cfg.EdgeBudgets = []int{1000, 3000, 10000, 30000, 100000}
		cfg.QueriesPerPoint = 100
	}
	if *scale > 0 {
		cfg.Scale = gen.Scale(*scale)
	}
	if *maxLen > 0 {
		cfg.MaxPatternLength = *maxLen
	}

	suite := experiments.NewSuite(cfg)
	out := os.Stdout
	run := strings.ToLower(*exp)
	want := func(name string) bool { return run == "all" || run == name }
	ran := false

	if want("table2") {
		ran = true
		fmt.Fprintln(out, "== Table 2: dataset statistics ==")
		rows, err := suite.Table2()
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteTable2(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if want("fig3") {
		ran = true
		fmt.Fprintln(out, "== Figure 3: effect of α and ε (Time, NP, NV, NE) ==")
		rows, err := suite.Figure3()
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteFigure3(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if want("fig4") {
		ran = true
		fmt.Fprintln(out, "== Figure 4: scalability with #sampled edges (α = 0) ==")
		rows, err := suite.Figure4()
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteFigure4(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if want("table3") {
		ran = true
		fmt.Fprintln(out, "== Table 3: TC-Tree indexing performance ==")
		rows, err := suite.Table3()
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteTable3(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if want("fig5a") {
		ran = true
		fmt.Fprintln(out, "== Figure 5(a)-(d): query by alpha ==")
		rows, err := suite.Figure5QBA()
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteFigure5(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if want("fig5b") {
		ran = true
		fmt.Fprintln(out, "== Figure 5(e)-(h): query by pattern ==")
		rows, err := suite.Figure5QBP(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteFigure5(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if want("case") {
		ran = true
		fmt.Fprintln(out, "== Table 4 / Figure 6: case study (co-author analogue) ==")
		comms, err := suite.CaseStudy(6)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteCaseStudy(out, comms); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if !ran {
		log.Fatalf("unknown experiment %q (want table2, fig3, fig4, table3, fig5a, fig5b, case or all)", *exp)
	}
}
