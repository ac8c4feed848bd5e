package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// runsFile is what -out writes and -compare reads.
type runsFile struct {
	Runs []*result `json:"runs"`
}

func writeRuns(path string, results []*result) error {
	data, err := json.MarshalIndent(runsFile{Runs: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRuns(path string) (*runsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series groups the runs' values by (workload, metric).
func series(runs []*result) map[[2]string][]float64 {
	out := make(map[[2]string][]float64)
	for _, r := range runs {
		for name, m := range r.Metrics {
			key := [2]string{r.Workload, name}
			out[key] = append(out[key], m.Value)
		}
	}
	return out
}

func sortedKeys(m map[[2]string][]float64) [][2]string {
	keys := make([][2]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// summarize prints each metric's median and quartiles over repeated runs,
// with the spread (interquartile range over median) the driver judges.
func summarize(w io.Writer, results []*result) {
	fmt.Fprintf(w, "summary over %d runs (quartiles as Python's statistics.quantiles, n=4):\n", len(results))
	fmt.Fprintf(w, "  %-12s %-36s %14s %14s %14s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	all := series(results)
	for _, k := range sortedKeys(all) {
		q1, q2, q3 := quartiles(all[k])
		fmt.Fprintf(w, "  %-12s %-36s %14.4f %14.4f %14.4f %8.4f\n", k[0], k[1], q1, q2, q3, spread(all[k]))
	}
}

// benchmarkJSON is the part of BENCHMARK.json the comparison needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict classifies new against old for one end-to-end metric on one
// workload, by the metric's direction and bound:
//
//   - regressed: the median worsened by more than the bound, and either the
//     runs repeat within the bound or every new run is worse than every old;
//   - improved: every new run is better than every old one;
//   - unresolved: the run-to-run spread exceeds the bound and the two sets
//     interleave, so neither of the above can be told;
//   - unchanged: otherwise.
func verdict(old, new []float64, better string, bound float64) string {
	sign := 1.0 // worse = larger
	if better == "higher" {
		sign = -1
	}
	worseBy := sign * (median(new) - median(old)) / median(old)
	minOld, maxOld := minMax(old)
	minNew, maxNew := minMax(new)
	allWorse, allBetter := minNew > maxOld, maxNew < minOld
	if better == "higher" {
		allWorse, allBetter = allBetter, allWorse
	}
	noisy := spread(old) > bound || spread(new) > bound
	switch {
	case allBetter:
		return "improved"
	case worseBy > bound && (!noisy || allWorse):
		return "regressed"
	case noisy && !allWorse:
		return "unresolved"
	}
	return "unchanged"
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// compareFiles prints the verdict for every (end-to-end metric, workload)
// pair the two files share and reports whether any regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	root, err := moduleRoot()
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var bench benchmarkJSON
	if err := json.Unmarshal(data, &bench); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	oldRuns, err := readRuns(oldPath)
	if err != nil {
		return false, err
	}
	newRuns, err := readRuns(newPath)
	if err != nil {
		return false, err
	}
	olds, news := series(oldRuns.Runs), series(newRuns.Runs)
	fmt.Fprintf(w, "  %-12s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, k := range sortedKeys(olds) {
		for _, m := range bench.EndToEnd {
			if m.Name != k[1] || len(news[k]) == 0 {
				continue
			}
			o, n := olds[k], news[k]
			v := verdict(o, n, m.Better, m.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "  %-12s %-24s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				k[0], k[1], median(o), median(n), 100*(median(n)-median(o))/median(o), 100*m.Bound, v)
		}
	}
	return regressed, nil
}
