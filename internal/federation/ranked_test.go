package federation

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"themecomm/internal/engine"
	"themecomm/internal/gen"
	"themecomm/internal/tctree"
)

// referenceTopKAll is the reference the federation's ranked answers are held
// to: every member's full answer (QueryAll), merged and sorted by
// engine.LessRanked with the network name as the last tiebreak, truncated to
// k (k <= 0: all of it).
func referenceTopKAll(t *testing.T, f *Federation, alpha float64, k int) []NetworkRanked {
	t.Helper()
	results, err := f.QueryAll(context.Background(), Constant(nil), alpha)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	var all []NetworkRanked
	for _, nr := range results {
		for _, c := range nr.Result.Communities {
			all = append(all, NetworkRanked{Network: nr.Network, Community: c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if engine.LessRanked(&a.Community, &b.Community) {
			return true
		}
		if engine.LessRanked(&b.Community, &a.Community) {
			return false
		}
		return a.Network < b.Network
	})
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// assertSameRanked compares two merged rankings position by position.
func assertSameRanked(t *testing.T, label string, got, want []NetworkRanked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d communities, the reference ranks %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Network != want[i].Network || !sameCommunity(got[i].Community, want[i].Community) {
			t.Fatalf("%s: rank %d is %s %+v, the reference ranks %s %+v", label, i, got[i].Network, got[i].Community, want[i].Network, want[i].Community)
		}
	}
}

// TestRankedAllMatchesReference: TopKAll equals the reference ranking of the
// members' full answers, over a federation of random networks and one of the
// four generated datasets at small scale, on the oracle's α and k grid (and a
// k beyond the whole answer).
func TestRankedAllMatchesReference(t *testing.T) {
	random, _ := newTestFederation(t, Options{})
	datasets := New(Options{})
	for _, name := range []string{"AMINER", "BK", "GW", "SYN"} {
		ds, err := gen.ByName(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := tctree.BuildIndex(ds.Network, tctree.BuildOptions{})
		if err != nil {
			t.Fatalf("BuildIndex: %v", err)
		}
		if err := datasets.AttachBuilt(name, idx, NetworkOptions{}); err != nil {
			t.Fatalf("AttachBuilt(%s): %v", name, err)
		}
	}
	for fname, f := range map[string]*Federation{"random": random, "datasets": datasets} {
		for _, alpha := range []float64{0, 0.1, 0.5, 1, 2, 3} {
			beyond := len(referenceTopKAll(t, f, alpha, 0)) + 1
			for _, k := range []int{1, 3, 10, 100, beyond} {
				label := fmt.Sprintf("%s α=%g k=%d", fname, alpha, k)
				want := referenceTopKAll(t, f, alpha, k)
				got, err := f.TopKAll(context.Background(), Constant(nil), alpha, k)
				if err != nil {
					t.Fatalf("%s: TopKAll: %v", label, err)
				}
				assertSameRanked(t, label+" TopKAll", got, want)
			}
		}
	}
}
