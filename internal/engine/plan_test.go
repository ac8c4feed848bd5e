package engine

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// planInfos is a synthetic shard catalogue for the pure-planner tests:
// heterogeneous sizes and α* bounds, mixed residency.
func planInfos() []ShardInfo {
	return []ShardInfo{
		{Item: 1, Nodes: 10, Depth: 2, MaxAlpha: 0.5, Resident: false},
		{Item: 2, Nodes: 100, Depth: 4, MaxAlpha: 2.0, Resident: true},
		{Item: 3, Nodes: 40, Depth: 3, MaxAlpha: 0.1, Resident: false},
		{Item: 5, Nodes: 70, Depth: 3, MaxAlpha: 1.5, Resident: false},
	}
}

// TestPlanDecisions checks every decision of the pure planner: absent root
// items, α*-provable skips, resident versus load, and the tallies.
func TestPlanDecisions(t *testing.T) {
	q := itemset.New(1, 2, 3)
	plan := PlanQuery(planInfos(), q, 0.3, DefaultPlanConfig())
	want := map[itemset.Item]Decision{
		1: DecisionLoad,       // α* 0.5 > 0.3, not resident
		2: DecisionResident,   // α* 2.0 > 0.3, resident
		3: DecisionSkipAlpha,  // α* 0.1 ≤ 0.3: provably empty
		5: DecisionSkipAbsent, // 5 ∉ q
	}
	if len(plan.Tasks) != len(want) {
		t.Fatalf("planned %d tasks, want %d", len(plan.Tasks), len(want))
	}
	for _, task := range plan.Tasks {
		if task.Decision != want[task.Item] {
			t.Errorf("shard %d: decision %q, want %q", task.Item, task.Decision, want[task.Item])
		}
	}
	if plan.Loads != 1 || plan.Resident != 1 || plan.SkippedAlpha != 1 || plan.SkippedAbsent != 1 {
		t.Fatalf("tallies load=%d resident=%d skipAlpha=%d skipAbsent=%d, want 1 each",
			plan.Loads, plan.Resident, plan.SkippedAlpha, plan.SkippedAbsent)
	}
	// The boundary is exact: α_q equal to the α* bound skips (C*_p(α) = ∅
	// for α ≥ α*), α_q just below it does not.
	boundary := PlanQuery(planInfos(), itemset.New(1), 0.5, DefaultPlanConfig())
	if got := boundary.Tasks[0].Decision; got != DecisionSkipAlpha {
		t.Fatalf("α_q = α*: decision %q, want skip", got)
	}
	below := PlanQuery(planInfos(), itemset.New(1), 0.4999, DefaultPlanConfig())
	if got := below.Tasks[0].Decision; got != DecisionLoad {
		t.Fatalf("α_q < α*: decision %q, want load", got)
	}
}

// TestPlanCostOrdering checks the schedule: most expensive first, with
// non-resident shards weighted up by the load cost, and skipped tasks never
// scheduled.
func TestPlanCostOrdering(t *testing.T) {
	plan := PlanQuery(planInfos(), nil, 0.3, DefaultPlanConfig())
	// Scheduled: shard 5 (70 nodes × load weight), shard 1 (10 × load
	// weight), shard 2 (100 resident). Costs 280, 40, 100 → order 5, 2, 1.
	var got []itemset.Item
	for _, i := range plan.Order {
		got = append(got, plan.Tasks[i].Item)
	}
	want := []itemset.Item{5, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v, want %v", got, want)
		}
	}
	if plan.TotalCost != 280+100+40 {
		t.Fatalf("TotalCost = %v, want 420", plan.TotalCost)
	}

	// Planning off: no α* skip, no reordering — every relevant shard runs
	// in ascending item order.
	off := PlanQuery(planInfos(), nil, 0.3, PlanConfig{})
	if off.SkippedAlpha != 0 || len(off.Order) != len(off.Tasks) {
		t.Fatalf("planner-off plan skipped %d, scheduled %d of %d", off.SkippedAlpha, len(off.Order), len(off.Tasks))
	}
	if !sort.IntsAreSorted(off.Order) {
		t.Fatalf("planner-off schedule %v is not in plan order", off.Order)
	}
}

// unplanned gives the engine the zero PlanConfig — every relevant shard
// traversed in ascending root-item order, nothing skipped — the reference
// execution the skip-soundness tests compare the served configuration with.
func unplanned(e *Engine) { e.planCfg = PlanConfig{} }

// TestPlannerParity is the planner on/off correctness matrix: for a corpus
// of queries spanning all-items, single-shard, subset and unindexed-item
// patterns across the full α range, the planning engine must produce
// byte-identical answers to the non-planning one, on both eager and lazy
// engines.
func TestPlannerParity(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	full := make(itemset.Itemset, 0, len(tree.Root().Children))
	for _, c := range tree.Root().Children {
		full = append(full, c.Item)
	}
	queries := []itemset.Itemset{nil, full, itemset.New(full[0]), itemset.New(full[0], 999), full[:len(full)/2]}
	alphas := []float64{0, 0.1, 0.3, 1.0, tree.MaxAlpha(), tree.MaxAlpha() + 1}
	// Per-shard α* bounds give each shard an α_q that skips it exactly.
	for _, st := range tree.ShardStats() {
		alphas = append(alphas, st.MaxAlpha)
	}

	type variant struct {
		name string
		mk   func(opts Options) (*Engine, error)
	}
	variants := []variant{
		{"eager", func(opts Options) (*Engine, error) { return New(tree, opts) }},
		{"lazy", func(opts Options) (*Engine, error) { return NewLazy(idx, opts) }},
		{"lazy-budget", func(opts Options) (*Engine, error) {
			opts.MaxResidentShards = 1
			return NewLazy(idx, opts)
		}},
	}
	for _, v := range variants {
		on, err := v.mk(Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s planner-on: %v", v.name, err)
		}
		off, err := v.mk(Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s planner-off: %v", v.name, err)
		}
		unplanned(off)
		for _, q := range queries {
			for _, alpha := range alphas {
				want := mustQuery(t, off, q, alpha)
				got := mustQuery(t, on, q, alpha)
				assertEqualAnswers(t, got, want)
				// Against the single-threaded tree walk only the truss
				// set is comparable: the engine groups by shard, the
				// tree interleaves levels across shards.
				var wantTree *tctree.QueryResult
				if q == nil {
					wantTree = tree.QueryByAlpha(alpha)
				} else {
					wantTree = tree.Query(q, alpha)
				}
				assertSameAnswer(t, got, wantTree)
			}
		}
	}
}

// TestPlannerSkipAvoidsLoads is the data-skipping acceptance test: on a lazy
// engine, a query whose α_q meets some shards' α* bounds must load strictly
// fewer shards than a planner-off engine — and the skipped shard files must
// never be read at all, which the test proves by deleting them.
func TestPlannerSkipAvoidsLoads(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, dir := writeShardedTestTree(t, tree)
	stats := tree.ShardStats()
	alphas := make([]float64, 0, len(stats))
	for _, st := range stats {
		alphas = append(alphas, st.MaxAlpha)
	}
	sort.Float64s(alphas)
	alphaQ := alphas[len(alphas)/2] // skips at least half the shards
	skippable := 0
	for _, st := range stats {
		if alphaQ >= st.MaxAlpha {
			skippable++
		}
	}
	if skippable == 0 || skippable == len(stats) {
		t.Fatalf("test tree has no α* spread (%d of %d skippable); pick another seed", skippable, len(stats))
	}

	off, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	unplanned(off)
	wantOff := mustQueryByAlpha(t, off, alphaQ)
	if got := off.Stats().LazyLoads; got != uint64(len(stats)) {
		t.Fatalf("planner-off loaded %d shards, want all %d", got, len(stats))
	}

	// Delete the skippable shard files: the planner must answer without
	// ever opening them.
	for _, st := range stats {
		if alphaQ >= st.MaxAlpha {
			entry, ok := idx.Entry(st.Item)
			if !ok {
				t.Fatalf("no manifest entry for %d", st.Item)
			}
			if err := os.Remove(filepath.Join(dir, entry.File)); err != nil {
				t.Fatalf("Remove: %v", err)
			}
		}
	}
	on, err := NewLazy(idx, Options{})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	got := mustQueryByAlpha(t, on, alphaQ)
	assertEqualAnswers(t, got, wantOff)
	st := on.Stats()
	if st.LazyLoads != uint64(len(stats)-skippable) {
		t.Fatalf("planner-on loaded %d shards, want %d", st.LazyLoads, len(stats)-skippable)
	}
	if st.LazyLoads >= off.Stats().LazyLoads {
		t.Fatalf("planner-on loads (%d) not strictly fewer than planner-off (%d)", st.LazyLoads, off.Stats().LazyLoads)
	}
	if st.ShardsSkipped != uint64(skippable) {
		t.Fatalf("ShardsSkipped = %d, want %d", st.ShardsSkipped, skippable)
	}
	// A lower α_q that needs a deleted shard must now fail loudly — proof
	// the skip was the only reason the query above succeeded.
	if _, err := on.QueryByAlpha(0); err == nil {
		t.Fatalf("query at α 0 should need the deleted shards")
	}
}

// TestQueryByAlphaCacheKey checks that the query-by-alpha workload is cached
// under the empty-pattern sentinel: a nil query and an explicit pattern
// covering every indexed item share one entry, and an applied delta
// invalidates it regardless of which shard it replaced.
func TestQueryByAlphaCacheKey(t *testing.T) {
	tree := buildTestTree(t, 11)
	nw := testNetwork(11)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{CacheSize: 8})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	full := make(itemset.Itemset, 0, len(tree.Root().Children))
	for _, c := range tree.Root().Children {
		full = append(full, c.Item)
	}
	mustQueryByAlpha(t, eng, 0.1)    // miss, executes
	mustQuery(t, eng, full, 0.1)     // full explicit pattern: same key, hit
	mustQueryByAlpha(t, eng, 0.1)    // hit
	mustQuery(t, eng, full[:1], 0.1) // different pattern: miss
	st := eng.Stats()
	if st.Cache.Hits != 2 || st.Cache.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2 and 2", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.Length != 2 {
		t.Fatalf("cache holds %d entries, want 2 (shared QBA entry + single-item entry)", st.Cache.Length)
	}
	// Swapping any shard invalidates the full-pattern entry (it depends on
	// every shard) and the single-item entry only if it matches.
	victim := full[len(full)-1]
	applyDelta(t, eng, nw, touchDelta(nw, victim))
	if got := eng.Stats().Cache.Length; got != 1 {
		t.Fatalf("after replacing shard %d the cache holds %d entries, want 1", victim, got)
	}
	applyDelta(t, eng, nw, touchDelta(nw, full[0]))
	if got := eng.Stats().Cache.Length; got != 0 {
		t.Fatalf("after replacing shard %d the cache holds %d entries, want 0", full[0], got)
	}
}

// TestExplain checks the Explain surface end to end on a lazy engine: every
// shard appears with a decision, the counters add up, execution matches
// Query, and the cache is bypassed.
func TestExplain(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	eng, err := NewLazy(idx, Options{CacheSize: 8})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	first := tree.Root().Children[0].Item
	q := itemset.New(first)
	rep, err := eng.Explain(q, 0)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if rep.Shards != len(eng.table.Load().shards) || len(rep.Tasks) != rep.Shards {
		t.Fatalf("report covers %d tasks of %d shards, want all %d", len(rep.Tasks), rep.Shards, len(eng.table.Load().shards))
	}
	if rep.SkippedAbsent != rep.Shards-1 {
		t.Fatalf("SkippedAbsent = %d, want %d", rep.SkippedAbsent, rep.Shards-1)
	}
	if rep.SkippedAlpha+rep.ResidentTasks+rep.LoadTasks != 1 {
		t.Fatalf("exactly one shard should execute or α*-skip: %+v", rep)
	}
	for _, task := range rep.Tasks {
		if task.Item == first {
			if task.Decision.Skipped() && rep.SkippedAlpha == 0 {
				t.Fatalf("shard %d wrongly skipped: %q", first, task.Decision)
			}
		} else if task.Decision != DecisionSkipAbsent {
			t.Fatalf("shard %d: decision %q, want skip-absent", task.Item, task.Decision)
		}
	}
	want := mustQuery(t, eng, q, 0)
	if rep.RetrievedNodes != want.RetrievedNodes || rep.VisitedNodes != want.VisitedNodes {
		t.Fatalf("Explain summary (%d, %d) does not match Query (%d, %d)",
			rep.RetrievedNodes, rep.VisitedNodes, want.RetrievedNodes, want.VisitedNodes)
	}
	// Explain neither reads nor writes the cache: the Query above was its
	// first hit-or-miss.
	st := eng.Stats()
	if st.Explains != 1 {
		t.Fatalf("Explains = %d, want 1", st.Explains)
	}
	if st.Cache.Hits != 0 || st.Cache.Misses != 1 {
		t.Fatalf("Explain touched the cache: hits=%d misses=%d", st.Cache.Hits, st.Cache.Misses)
	}
	// A full explain at a skipping α_q reports the α* skips.
	stats := tree.ShardStats()
	alphas := make([]float64, 0, len(stats))
	for _, s := range stats {
		alphas = append(alphas, s.MaxAlpha)
	}
	sort.Float64s(alphas)
	repAll, err := eng.Explain(nil, alphas[len(alphas)/2])
	if err != nil {
		t.Fatalf("Explain(nil): %v", err)
	}
	if !repAll.Full {
		t.Fatalf("nil query should report Full")
	}
	if repAll.SkippedAlpha == 0 {
		t.Fatalf("median-α* explain reports no α* skips")
	}
	if len(repAll.ScheduleOrder) != repAll.ResidentTasks+repAll.LoadTasks {
		t.Fatalf("schedule lists %d tasks, want %d", len(repAll.ScheduleOrder), repAll.ResidentTasks+repAll.LoadTasks)
	}
}
