package engine

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/delta"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// planInfos is a synthetic shard catalogue for the pure-planner tests:
// heterogeneous sizes and α* bounds.
func planInfos() []ShardInfo {
	return []ShardInfo{
		{Item: 1, Nodes: 10, Depth: 2, MaxAlpha: 0.5},
		{Item: 2, Nodes: 100, Depth: 4, MaxAlpha: 2.0},
		{Item: 3, Nodes: 40, Depth: 3, MaxAlpha: 0.1},
		{Item: 5, Nodes: 70, Depth: 3, MaxAlpha: 1.5},
	}
}

// TestPlanDecisions checks every sub-pattern decision of the pure planner:
// absent root items, α*-provable skips, scans, the tallies and the schedule.
func TestPlanDecisions(t *testing.T) {
	q := itemset.New(1, 2, 3)
	plan := planQuery(planInfos(), q, 0.3, ModeSub, false)
	want := map[itemset.Item]Decision{
		1: DecisionScan,       // α* 0.5 > 0.3
		2: DecisionScan,       // α* 2.0 > 0.3
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
	if len(plan.Order) != 2 || plan.SkippedAlpha != 1 || plan.SkippedAbsent != 1 {
		t.Fatalf("tallies scan=%d skipAlpha=%d skipAbsent=%d, want 2, 1, 1",
			len(plan.Order), plan.SkippedAlpha, plan.SkippedAbsent)
	}
	// The schedule is the scanned tasks in ascending root-item order.
	if plan.Order[0] != 0 || plan.Order[1] != 1 {
		t.Fatalf("schedule %v, want [0 1]", plan.Order)
	}
	// The boundary is exact: α_q equal to the α* bound skips (C*_p(α) = ∅
	// for α ≥ α*), α_q just below it does not.
	boundary := planQuery(planInfos(), itemset.New(1), 0.5, ModeSub, false)
	if got := boundary.Tasks[0].Decision; got != DecisionSkipAlpha {
		t.Fatalf("α_q = α*: decision %q, want skip", got)
	}
	below := planQuery(planInfos(), itemset.New(1), math.Nextafter(0.5, 0), ModeSub, false)
	if got := below.Tasks[0].Decision; got != DecisionScan {
		t.Fatalf("α_q < α*: decision %q, want scan", got)
	}
}

// unplanned makes the engine scan every relevant shard, skipping none: the
// reference execution the skip-soundness tests compare the planner with.
func unplanned(e *Engine) { e.visitAll = true }

// drainPlanned executes (q, alpha) in the given mode exactly as a drained
// query does, minus the result cache, and returns the execution with its
// plan and per-task records.
func drainPlanned(t *testing.T, e *Engine, q itemset.Itemset, alpha float64, mode QueryMode) *Stream {
	t.Helper()
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	tab := e.table.Load()
	mode, eff, full := canonicalMode(tab, q, mode)
	st := e.newStream(context.Background(), tab, time.Now(), eff, full, alpha, mode, false)
	if _, err := st.drain(); err != nil {
		t.Fatalf("drain(%v, %v, %s): %v", q, alpha, mode, err)
	}
	return st
}

// assertOpensSchedule checks that an execution opened exactly the scheduled
// shards: every task in plan.Order and no other, so a skipped shard is never
// acquired. The schedule must be ascending, and with visitAll it must hold
// every relevant shard.
func assertOpensSchedule(t *testing.T, st *Stream, visitAll bool) {
	t.Helper()
	plan := st.plan
	if !sort.IntsAreSorted(plan.Order) {
		t.Fatalf("schedule %v is not ascending", plan.Order)
	}
	if got := st.Stats().ShardsOpened; got != len(plan.Order) {
		t.Fatalf("opened %d shards, scheduled %d", got, len(plan.Order))
	}
	for i, task := range plan.Tasks {
		if st.runs[i].opened == task.Decision.Skipped() {
			t.Fatalf("shard %d: decision %q, opened %v", task.Item, task.Decision, st.runs[i].opened)
		}
	}
	if visitAll && len(plan.Order) != len(plan.Tasks)-plan.SkippedAbsent {
		t.Fatalf("reference plan skipped shards: %+v", plan)
	}
}

// TestPlannerParity is the skip-soundness property test. Over random
// networks and random queries — empty patterns and unindexed items included —
// at every α that sits exactly on or just below a shard's α* bound, in both
// query modes, the planning engine must answer like the unplanned reference
// that scans every relevant shard: byte-identical sub-pattern answers,
// visited-node counts included, and the same containment communities (a
// bloom skip drops the visit a scan would have counted). Every execution must
// open exactly its scheduled shards. The engines are eager, lazy, lazy under
// a one-shard budget, and lazy after an in-memory delta that is not
// checkpointed — heap shards with rebuilt catalogues next to file shards
// with manifest catalogues.
func TestPlannerParity(t *testing.T) {
	const unindexed = itemset.Item(997)
	mixed := 0
	seen := map[Decision]int{}
	for seed := int64(1); seed <= 5; seed++ {
		network := func() *dbnet.Network { return randomNetwork(rand.New(rand.NewSource(seed)), 16, 40, 5, 4) }
		tree := tctree.Build(network(), tctree.BuildOptions{})
		if tree.NumNodes() == 0 {
			continue
		}
		idx, _ := writeShardedTestTree(t, tree)
		// The delta rebuilds two shards — a random indexed item's and that of
		// item 5, which the generator never emits — and leaves the rest on
		// their files.
		rng := rand.New(rand.NewSource(seed))
		roots := tree.Root().Children
		d := patternTriangleDelta(network(), itemset.New(roots[rng.Intn(len(roots))].Item, 5))
		updated := network()
		if err := delta.Apply(updated, d); err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		updatedTree := tctree.Build(updated, tctree.BuildOptions{})

		type variant struct {
			name string
			tree *tctree.Tree
			mk   func() (*Engine, error)
		}
		lazy := func(opts Options) func() (*Engine, error) {
			return func() (*Engine, error) { return NewLazy(idx, opts) }
		}
		variants := []variant{
			{"eager", tree, func() (*Engine, error) { return New(builtIndex(t, network()), Options{Workers: 4}) }},
			{"lazy", tree, lazy(Options{Workers: 4})},
			{"lazy-budget", tree, lazy(Options{Workers: 4, MaxResidentShards: 1})},
			{"lazy-dirty", updatedTree, func() (*Engine, error) {
				e, err := NewLazy(idx, Options{Workers: 4})
				if err == nil {
					_, err = e.ApplyDeltaInMemory(network(), d)
				}
				return e, err
			}},
		}
		for _, v := range variants {
			on, err := v.mk()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			off, err := v.mk()
			if err != nil {
				t.Fatalf("seed %d %s reference: %v", seed, v.name, err)
			}
			unplanned(off)

			tab := on.table.Load()
			heap := 0
			// α on and just below every α* bound: the next float down, and
			// far enough down to clear the kernel's cohesion tolerance, where
			// the shard's root truss is live again.
			alphas := []float64{0}
			for _, s := range tab.shards {
				alphas = append(alphas, s.maxAlpha, math.Nextafter(s.maxAlpha, 0), s.maxAlpha-1e-6)
				if s.load == nil {
					heap++
				}
			}
			alphas = append(alphas, on.MaxAlpha()+1)
			if heap > 0 && heap < len(tab.shards) {
				mixed++
			}
			pool := append(slices.Clone(tab.items), unindexed)
			queries := []itemset.Itemset{nil, {}}
			for i := 0; i < 8; i++ {
				q := itemset.Itemset{}
				for n := rng.Intn(4); n > 0; n-- {
					q = q.Add(pool[rng.Intn(len(pool))])
				}
				queries = append(queries, q)
			}

			for _, q := range queries {
				for _, alpha := range alphas {
					got := mustQuery(t, on, q, alpha)
					assertEqualAnswers(t, got, mustQuery(t, off, q, alpha))
					want := v.tree.QueryByAlpha(alpha)
					if q != nil {
						want = v.tree.Query(q, alpha)
					}
					assertSameAnswer(t, got, want)

					gotC, err := on.QueryContainingContext(context.Background(), q, alpha)
					if err != nil {
						t.Fatalf("%s: QueryContaining(%v, %v): %v", v.name, q, alpha, err)
					}
					wantC, err := off.QueryContainingContext(context.Background(), q, alpha)
					if err != nil {
						t.Fatalf("%s reference: QueryContaining(%v, %v): %v", v.name, q, alpha, err)
					}
					if gotC.RetrievedNodes != wantC.RetrievedNodes {
						t.Fatalf("%s: containment (%v, %v) retrieved %d, reference %d", v.name, q, alpha, gotC.RetrievedNodes, wantC.RetrievedNodes)
					}
					assertEqualCommunities(t, gotC.Communities, wantC.Communities)

					for _, mode := range []QueryMode{ModeSub, ModeContaining} {
						st := drainPlanned(t, on, q, alpha, mode)
						assertOpensSchedule(t, st, false)
						for _, task := range st.plan.Tasks {
							seen[task.Decision]++
						}
						assertOpensSchedule(t, drainPlanned(t, off, q, alpha, mode), true)
					}
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatalf("no in-memory delta left heap shards next to file shards; pick other seeds")
	}
	// The property is only as strong as the skips it saw taken.
	for _, d := range []Decision{DecisionSkipAlpha, DecisionSkipBloom} {
		if seen[d] == 0 {
			t.Fatalf("no %s decision in %v; the corpus does not exercise it", d, seen)
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
	if _, err := on.QueryContext(context.Background(), nil, 0); err == nil {
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
	if rep.SkippedAlpha+len(rep.ScheduleOrder) != 1 {
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
	skipped := repAll.SkippedAlpha + repAll.SkippedAbsent + repAll.SkippedBloom
	if len(repAll.ScheduleOrder) != repAll.Shards-skipped {
		t.Fatalf("schedule lists %d tasks, want %d", len(repAll.ScheduleOrder), repAll.Shards-skipped)
	}
	if !slices.IsSorted(repAll.ScheduleOrder) {
		t.Fatalf("drained schedule %v is not ascending", repAll.ScheduleOrder)
	}
}
