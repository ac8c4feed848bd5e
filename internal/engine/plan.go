package engine

import (
	"sort"

	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// This file is the planning half of the engine's plan→execute split. The
// planner is pure: it consumes the query, α_q and a snapshot of per-shard
// statistics (manifest stats in lazy mode, live shard metadata in eager
// mode) and emits a QueryPlan — the per-shard decisions plus a cost-ordered
// schedule — without touching the tree, the disk or any engine state. The
// executor (Stream, in stream.go) then owns acquisition, eviction, traversal
// and the deterministic merge. Keeping the planner side-effect free makes
// every decision unit-testable from synthetic statistics alone.

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
	// pattern the shard indexes), and the per-shard catalogue — item bloom
	// filter and α*-by-depth histogram — can rule shards out entirely.
	ModeContaining QueryMode = "containing"
)

// ShardInfo is the planner's view of one shard: the catalogue statistics
// plus residency, everything a decision needs and nothing it doesn't.
type ShardInfo struct {
	// Item is the shard's root item.
	Item itemset.Item
	// Nodes, Depth and MaxAlpha are the shard's catalogue statistics: node
	// count, longest indexed pattern, and α* bound (C*_p(α) = ∅ for every
	// α ≥ MaxAlpha, for every pattern p of the shard).
	Nodes    int
	Depth    int
	MaxAlpha float64
	// Resident reports whether the shard subtree is already in memory.
	Resident bool
	// Bloom and AlphaDepths are the shard's skipping catalogue (nil on
	// indexes written before the catalogue existed): the item bloom filter
	// over the shard's patterns and the best α* per pattern length. Only
	// containment planning consults them — for sub-pattern queries the α*
	// bound is already exact (the shard root's α* equals MaxAlpha by
	// anti-monotonicity), so neither structure can prune anything the
	// alpha skip doesn't.
	Bloom       *tctree.ItemBloom
	AlphaDepths []float64
}

// Decision is the planner's verdict on one shard.
type Decision string

const (
	// DecisionLoad schedules the shard for traversal after a disk load (the
	// shard is relevant but not resident — lazy engines only).
	DecisionLoad Decision = "load"
	// DecisionResident schedules the shard for traversal from memory.
	DecisionResident Decision = "resident"
	// DecisionSkipAlpha prunes the shard from metadata alone: α_q ≥ α*, so
	// every truss of the shard is provably empty at α_q. The executor
	// synthesizes the one root visit the traversal would have made, so
	// answers stay byte-identical with planning off — but the shard is
	// never traversed and, on a lazy engine, never read from disk.
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
	// DecisionSkipHist prunes a containment shard from the α*-by-depth
	// histogram: a superset of q needs a node at least needDepth(q) deep,
	// and the best α* reachable at that depth is at most the histogram
	// bound — α_q at or above it proves an empty contribution. The executor
	// synthesizes the root visit the traversal would have made.
	DecisionSkipHist Decision = "skip-hist"
)

// Skipped reports whether the decision avoids executing the shard.
func (d Decision) Skipped() bool {
	switch d {
	case DecisionSkipAlpha, DecisionSkipAbsent, DecisionSkipBloom, DecisionSkipHist:
		return true
	}
	return false
}

// ShardTask is one planned shard of a QueryPlan.
type ShardTask struct {
	// Item is the shard's root item.
	Item itemset.Item `json:"item"`
	// Decision is the planner's verdict for this query.
	Decision Decision `json:"decision"`
	// Nodes and MaxAlpha echo the statistics the decision was made from.
	Nodes    int     `json:"nodes"`
	MaxAlpha float64 `json:"maxAlpha"`
	// Cost is the task's execution cost estimate: the node count, weighted
	// up when the shard must be loaded from disk first. Skipped tasks cost
	// nothing.
	Cost float64 `json:"cost"`
}

// PlanConfig selects which planner optimizations apply. The zero value
// disables them all, reproducing the pre-planner engine: every relevant
// shard is traversed in ascending root-item order.
type PlanConfig struct {
	// AlphaSkip prunes shards whose α* bound proves an empty answer at α_q.
	AlphaSkip bool
	// CostOrder schedules the most expensive tasks first so a straggler
	// runs concurrently with the cheap tail instead of serializing it.
	CostOrder bool
	// CatalogueSkip prunes containment-mode shards from the per-shard
	// catalogue: the item bloom filter (skip-bloom) and the α*-by-depth
	// histogram (skip-hist). It never affects sub-pattern plans.
	CatalogueSkip bool
	// LoadCost is the cost multiplier of a non-resident shard (disk read +
	// checksum + decode on top of the traversal). Zero means
	// DefaultLoadCost.
	LoadCost float64
}

// DefaultPlanConfig returns the configuration of a planning engine: α*
// skipping, cost ordering and catalogue skipping on, default load weight.
func DefaultPlanConfig() PlanConfig {
	return PlanConfig{AlphaSkip: true, CostOrder: true, CatalogueSkip: true}
}

// DefaultLoadCost is the default cost multiplier of a shard that must be
// loaded before traversal.
const DefaultLoadCost = 4.0

// QueryPlan is the planner's output: one task per considered shard in
// ascending root-item order (the deterministic merge order), an execution
// schedule, and the decision tallies.
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
	// Order is the execution schedule: indices into Tasks of every
	// non-skipped task, most expensive first when cost ordering is on.
	Order []int
	// SkippedAlpha, SkippedAbsent, SkippedBloom, SkippedHist, Resident and
	// Loads tally the decisions.
	SkippedAlpha  int
	SkippedAbsent int
	SkippedBloom  int
	SkippedHist   int
	Resident      int
	Loads         int
	// TotalCost is the summed cost of the scheduled tasks.
	TotalCost float64
}

// PlanQuery plans a sub-pattern query (q, alphaQ) over the given shard
// statistics, which must be in ascending root-item order. A nil q means
// every listed shard is relevant (the query-by-alpha workload). PlanQuery is
// pure: same inputs, same plan.
func PlanQuery(shards []ShardInfo, q itemset.Itemset, alphaQ float64, cfg PlanConfig) *QueryPlan {
	return PlanQueryMode(shards, q, alphaQ, ModeSub, cfg)
}

// PlanQueryMode plans (q, alphaQ) under the given query mode. Sub-pattern
// mode reproduces PlanQuery; containment mode additionally consults the
// per-shard catalogue (bloom filter, α*-by-depth histogram) when
// cfg.CatalogueSkip is set.
func PlanQueryMode(shards []ShardInfo, q itemset.Itemset, alphaQ float64, mode QueryMode, cfg PlanConfig) *QueryPlan {
	loadCost := cfg.LoadCost
	if loadCost <= 0 {
		loadCost = DefaultLoadCost
	}
	plan := &QueryPlan{Alpha: alphaQ, Mode: mode, Pattern: q, Tasks: make([]ShardTask, 0, len(shards))}
	for _, s := range shards {
		task := ShardTask{Item: s.Item, Nodes: s.Nodes, MaxAlpha: s.MaxAlpha}
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
		case cfg.AlphaSkip && alphaQ >= s.MaxAlpha:
			task.Decision = DecisionSkipAlpha
			plan.SkippedAlpha++
		case mode == ModeContaining && cfg.CatalogueSkip && bloomRejects(s.Bloom, q):
			task.Decision = DecisionSkipBloom
			plan.SkippedBloom++
		case mode == ModeContaining && cfg.CatalogueSkip && histRejects(s, q, alphaQ):
			task.Decision = DecisionSkipHist
			plan.SkippedHist++
		case s.Resident:
			task.Decision = DecisionResident
			task.Cost = float64(s.Nodes)
			plan.Resident++
		default:
			task.Decision = DecisionLoad
			task.Cost = float64(s.Nodes) * loadCost
			plan.Loads++
		}
		if !task.Decision.Skipped() {
			plan.Order = append(plan.Order, len(plan.Tasks))
			plan.TotalCost += task.Cost
		}
		plan.Tasks = append(plan.Tasks, task)
	}
	if cfg.CostOrder {
		sort.SliceStable(plan.Order, func(a, b int) bool {
			ta, tb := plan.Tasks[plan.Order[a]], plan.Tasks[plan.Order[b]]
			if ta.Cost != tb.Cost {
				return ta.Cost > tb.Cost
			}
			return ta.Item < tb.Item
		})
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

// histRejects reports whether the α*-by-depth histogram proves every node
// deep enough to index a superset of q is already empty at α_q. A superset
// of q has at least |q| items — one more when the shard's root item is not
// in q, since the root item is part of every indexed pattern.
func histRejects(s ShardInfo, q itemset.Itemset, alphaQ float64) bool {
	if len(s.AlphaDepths) == 0 || q.Len() == 0 {
		return false
	}
	needDepth := q.Len()
	if !q.Contains(s.Item) {
		needDepth++
	}
	return alphaQ >= tctree.ContainmentAlphaBound(s.AlphaDepths, needDepth)
}
