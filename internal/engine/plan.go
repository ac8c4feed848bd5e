package engine

import (
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// This file is the planning half of the engine's plan→execute split. The
// planner is a pure function of the query, α_q and the shard catalogue — the
// per-shard statistics of the manifest, or of a rebuilt shard's own entry —
// and emits a QueryPlan: one decision per shard plus the schedule, without
// touching the tree, the disk or any engine state. The only decisions it makes
// are the ones that skip work, each proven from the catalogue alone: a shard
// whose patterns cannot match the query, a shard whose α* bound is at or
// below α_q (anti-monotonicity makes every truss of it empty), and, for a
// containment query, a shard whose item filter rules out every superset of q.
// Every other shard is scanned, in ascending root-item order. The executor
// (Stream, in stream.go) then owns acquisition, eviction, traversal and the
// deterministic merge.

// QueryMode selects the query semantics a plan serves.
type QueryMode string

const (
	// ModeSub is the paper's Algorithm 5 workload: retrieve the trusses of
	// every indexed pattern p ⊆ q at α_q. Only shards whose root item is in
	// q are relevant.
	ModeSub QueryMode = "sub"
	// ModeContaining is the containment workload: retrieve the trusses of
	// every indexed pattern p ⊇ q at α_q. Only shards whose root item is at
	// most min(q) are relevant (the root item is the smallest item of every
	// pattern the shard indexes), and the per-shard item bloom filter can
	// rule shards out entirely.
	ModeContaining QueryMode = "containing"
)

// ShardInfo is the planner's view of one shard: its catalogue entry,
// everything a decision needs and nothing it doesn't.
type ShardInfo struct {
	// Item is the shard's root item.
	Item itemset.Item
	// Nodes, Depth and MaxAlpha are the shard's catalogue statistics: node
	// count, longest indexed pattern, and α* bound (C*_p(α) = ∅ for every
	// α ≥ MaxAlpha, for every pattern p of the shard).
	Nodes    int
	Depth    int
	MaxAlpha float64
	// Bloom is the item bloom filter over the shard's patterns (nil on
	// indexes written before the catalogue existed). Only containment
	// planning consults it — for sub-pattern queries the α* bound is already
	// exact (the shard root's α* equals MaxAlpha by anti-monotonicity), so
	// the filter cannot prune anything the alpha skip doesn't.
	Bloom *tctree.ItemBloom
}

// Decision is the planner's verdict on one shard.
type Decision string

const (
	// DecisionScan schedules the shard for traversal: nothing in the
	// catalogue proves it empty for the query. A file-backed shard that is
	// not resident is read from disk by the traversal.
	DecisionScan Decision = "scan"
	// DecisionSkipAlpha prunes the shard from metadata alone: α_q ≥ α*, so
	// every truss of the shard is provably empty at α_q. The executor
	// synthesizes the one root visit the traversal would have made, so
	// answers stay byte-identical to a scan — but the shard is never
	// traversed and, on a lazy engine, never read from disk.
	DecisionSkipAlpha Decision = "skip-alpha"
	// DecisionSkipAbsent prunes the shard because no indexed pattern of the
	// shard can satisfy the mode: in sub-pattern mode its root item is not
	// in q; in containment mode its root item exceeds min(q), so every
	// pattern it indexes misses q's smallest item. Such shards contribute
	// nothing, not even a visit.
	DecisionSkipAbsent Decision = "skip-absent"
	// DecisionSkipBloom prunes a containment shard because some query item
	// fails the shard's item bloom filter: the item appears in no pattern
	// of the shard, so no indexed pattern can contain q. The shard is never
	// opened; no visit is synthesized (the filter proves the traversal
	// would only have confirmed absence).
	DecisionSkipBloom Decision = "skip-bloom"
)

// Skipped reports whether the decision avoids executing the shard.
func (d Decision) Skipped() bool { return d != DecisionScan }

// ShardTask is one planned shard of a QueryPlan.
type ShardTask struct {
	// Item is the shard's root item.
	Item itemset.Item `json:"item"`
	// Decision is the planner's verdict for this query.
	Decision Decision `json:"decision"`
	// Nodes and MaxAlpha echo the statistics the decision was made from.
	Nodes    int     `json:"nodes"`
	MaxAlpha float64 `json:"maxAlpha"`
}

// QueryPlan is the planner's output: one task per considered shard in
// ascending root-item order (the deterministic merge order), the schedule,
// and the skip tallies.
type QueryPlan struct {
	// Alpha is the query's cohesion threshold α_q.
	Alpha float64
	// Mode is the query semantics the plan serves (sub-pattern when empty).
	Mode QueryMode
	// Pattern is the canonicalized query pattern the tasks were planned
	// for; nil means every indexed item (query by alpha).
	Pattern itemset.Itemset
	// Tasks lists the considered shards in ascending root-item order.
	Tasks []ShardTask
	// Order is the schedule: the indices into Tasks of the scanned tasks,
	// ascending. A ranked stream re-sorts it by α* bound.
	Order []int
	// SkippedAlpha, SkippedAbsent and SkippedBloom tally the skip
	// decisions; len(Order) counts the scans.
	SkippedAlpha  int
	SkippedAbsent int
	SkippedBloom  int
}

// planQuery plans (q, alphaQ) under the given query mode over the shard
// catalogue, which must be in ascending root-item order. A nil q in
// sub-pattern mode means every listed shard is relevant (the query-by-alpha
// workload). visitAll keeps only the relevance test (skip-absent) and scans
// every relevant shard: the reference execution the skip-soundness tests
// compare against. planQuery is pure: same inputs, same plan.
func planQuery(shards []ShardInfo, q itemset.Itemset, alphaQ float64, mode QueryMode, visitAll bool) *QueryPlan {
	plan := &QueryPlan{Alpha: alphaQ, Mode: mode, Pattern: q, Tasks: make([]ShardTask, 0, len(shards))}
	for _, s := range shards {
		task := ShardTask{Item: s.Item, Decision: DecisionScan, Nodes: s.Nodes, MaxAlpha: s.MaxAlpha}
		switch {
		case mode != ModeContaining && q != nil && !q.Contains(s.Item):
			task.Decision = DecisionSkipAbsent
			plan.SkippedAbsent++
		case mode == ModeContaining && q.Len() > 0 && s.Item > q[0]:
			// The shard's root item is the smallest item of every pattern it
			// indexes; a pattern containing q must contain q's smallest item,
			// so its shard root is at most q[0].
			task.Decision = DecisionSkipAbsent
			plan.SkippedAbsent++
		case visitAll:
			// Relevant, and the reference execution scans it.
		case alphaQ >= s.MaxAlpha:
			task.Decision = DecisionSkipAlpha
			plan.SkippedAlpha++
		case mode == ModeContaining && bloomRejects(s.Bloom, q):
			task.Decision = DecisionSkipBloom
			plan.SkippedBloom++
		}
		if task.Decision == DecisionScan {
			plan.Order = append(plan.Order, len(plan.Tasks))
		}
		plan.Tasks = append(plan.Tasks, task)
	}
	return plan
}

// bloomRejects reports whether the shard's item filter proves some query
// item appears in no pattern of the shard — in which case no indexed
// pattern can contain q. A nil filter (pre-catalogue index) never rejects.
func bloomRejects(bloom *tctree.ItemBloom, q itemset.Itemset) bool {
	if bloom == nil {
		return false
	}
	for _, it := range q {
		if !bloom.MayContain(it) {
			return true
		}
	}
	return false
}
