package engine

import (
	"context"
	"time"

	"themecomm/internal/itemset"
)

// TaskReport is one shard of an Explain answer: the planned task annotated
// with what actually happened when the plan ran.
type TaskReport struct {
	ShardTask
	// Micros is the task's wall time (acquire + traversal); zero for
	// skipped tasks, which do no work.
	Micros int64 `json:"micros,omitempty"`
	// Loaded reports whether this execution read the shard from disk (the
	// shard was not resident and no concurrent query got there first).
	Loaded bool `json:"loaded,omitempty"`
	// Visited and Trusses are the task's share of the answer: nodes
	// inspected and trusses retrieved.
	Visited int `json:"visited"`
	Trusses int `json:"trusses"`
}

// ExplainReport is the answer of Engine.Explain: the full query plan —
// every shard with its decision, including the shards the query pattern
// excludes — plus the observed execution counters.
type ExplainReport struct {
	// Pattern is the canonicalized query pattern; Full marks a pattern
	// covering every indexed item (the query-by-alpha workload).
	Pattern itemset.Itemset `json:"pattern"`
	Full    bool            `json:"full"`
	// Mode is the query semantics the plan served; empty means sub-pattern.
	Mode QueryMode `json:"mode,omitempty"`
	// Alpha is the cohesion threshold α_q.
	Alpha float64 `json:"alpha"`
	// Lazy and Workers describe the engine the plan ran on.
	Lazy    bool `json:"lazy"`
	Workers int  `json:"workers"`
	// Shards is the total shard count; the fields below tally the per-shard
	// decisions.
	Shards        int `json:"shards"`
	SkippedAlpha  int `json:"skippedAlpha"`
	SkippedAbsent int `json:"skippedAbsent"`
	// SkippedBloom tallies the containment-only catalogue skips: shards
	// ruled out by the item bloom filter. Always zero for sub-pattern plans.
	SkippedBloom int `json:"skippedBloom,omitempty"`
	// Loaded counts the disk loads this execution performed.
	Loaded int `json:"loaded"`
	// ShortCircuited counts scheduled shards a pulled stream never opened:
	// top-k early termination proved their α* bound could not improve the
	// emitted answer. Always zero for drained executions, which open every
	// scheduled shard.
	ShortCircuited int `json:"shortCircuited,omitempty"`
	// ScheduleOrder lists the scanned shards' root items in the order they
	// open: ascending for a drained execution, by descending α* bound for a
	// ranked stream. It is a plain slice, not a canonical itemset: α* order
	// is not item order.
	ScheduleOrder []itemset.Item `json:"scheduleOrder"`
	// Tasks lists every shard in ascending root-item order with its
	// decision and execution record.
	Tasks []TaskReport `json:"tasks"`
	// RetrievedNodes, VisitedNodes and Micros summarise the executed
	// answer, matching what QueryContext would have returned.
	RetrievedNodes int   `json:"retrievedNodes"`
	VisitedNodes   int   `json:"visitedNodes"`
	Micros         int64 `json:"micros"`
}

// Explain is ExplainContext for a sub-pattern query without a context. It
// stays because cmd/tcload pins it.
func (e *Engine) Explain(q itemset.Itemset, alphaQ float64) (*ExplainReport, error) {
	return e.ExplainContext(context.Background(), q, alphaQ, ModeSub)
}

// ExplainContext plans (q, alphaQ) under the given mode, executes the plan,
// and returns the per-shard decisions and post-execution counters. Unlike a
// query it plans every shard — so the report shows which shards the pattern
// excluded and, in containment mode, the catalogue at work — and it bypasses
// the result cache in both directions: an explain measures the execution a
// cold query would pay, and its answer is discarded rather than cached. A nil
// q means every item (query by alpha); an empty containment q degenerates to
// that too, matching QueryContainingContext. The context cancels the execution at
// shard boundaries, like QueryContext's.
func (e *Engine) ExplainContext(ctx context.Context, q itemset.Itemset, alphaQ float64, mode QueryMode) (*ExplainReport, error) {
	e.explains.Add(1)
	start := time.Now()
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	t := e.table.Load()
	mode, eff, full := canonicalMode(t, q, mode)
	st := e.newStream(ctx, t, start, eff, full, alphaQ, mode, true)
	if _, err := st.drain(); err != nil {
		return nil, err
	}
	report := st.report()
	report.Micros = time.Since(start).Microseconds()
	return report, nil
}

// report assembles the per-shard plan/execution report of the stream's
// execution so far. Explain returns it directly; observe hands it to the
// injected Recorder as the lazy Detail payload, so a slow query's log entry
// carries the same per-shard breakdown an Explain of the query would have
// shown — for the execution that actually was slow, not a rerun.
func (st *Stream) report() *ExplainReport {
	plan, stats := st.plan, st.Stats()
	mode := plan.Mode
	if mode == ModeSub {
		mode = "" // the default; keep sub-pattern reports unchanged
	}
	report := &ExplainReport{
		Pattern:        plan.Pattern,
		Full:           st.full,
		Mode:           mode,
		Alpha:          plan.Alpha,
		Lazy:           st.e.Lazy(),
		Workers:        st.e.workers,
		Shards:         len(plan.Tasks),
		SkippedAlpha:   plan.SkippedAlpha,
		SkippedAbsent:  plan.SkippedAbsent,
		SkippedBloom:   plan.SkippedBloom,
		Loaded:         stats.Loads,
		ShortCircuited: stats.ShardsShortCircuited,
		RetrievedNodes: stats.RetrievedNodes,
		VisitedNodes:   stats.VisitedNodes,
	}
	for _, i := range plan.Order {
		report.ScheduleOrder = append(report.ScheduleOrder, plan.Tasks[i].Item)
	}
	report.Tasks = make([]TaskReport, len(plan.Tasks))
	for i, t := range plan.Tasks {
		run := &st.runs[i]
		report.Tasks[i] = TaskReport{
			ShardTask: t,
			Micros:    run.dur.Microseconds(),
			Loaded:    run.loaded(),
			Visited:   run.Visited,
			Trusses:   run.Retrieved,
		}
	}
	return report
}
