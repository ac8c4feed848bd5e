package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"themecomm/internal/itemset"
	"themecomm/internal/par"
	"themecomm/internal/tctree"
	"themecomm/internal/trace"
	"themecomm/internal/truss"
)

// This file is the engine's one executor. A Stream holds a plan and one
// execution record per plan task, and open is the only routine that turns a
// task into an answer: acquire the shard, traverse it, fill the record. The
// entry points differ in which tasks they open, and when:
//
//   - drained (the …Context queries, the batch, Explain): every scheduled
//     task is opened at once by the caller and up to workers−1 helpers, in
//     the plan's ascending root-item order, and the answers are concatenated
//     in that order. The caller holds the engine's update lock for reading
//     throughout; QueryContext puts the result cache around it.
//   - pulled (StreamQuery, StreamTopK): tasks open one at a time as the caller
//     pulls, so a query holds one shard's answer rather than the whole result
//     set, and bypasses the result cache in both directions. A plain stream
//     opens shards in ascending root-item order and yields the drained order.
//   - ranked (StreamTopK, and TopKWithResultContext, which pulls the same
//     execution to its end under the update lock): opened shards feed a
//     k-way heap keyed by lessRanked and open in descending α*-bound order.
//     The bound caps the cohesion of every community of the shard, so once
//     the heap head strictly beats the best unopened bound the rest cannot
//     contribute an earlier community, and a caller that stops at k never
//     loads them (Close tallies them as ShardsShortCircuited). With k > 0 a
//     truss.Floor shared by every open holds the k best cohesions retrieved
//     so far: a shard traversal skips a child and its subtree, and the
//     stream stops opening shards, once the bound lies below the floor by
//     more than the cohesion tolerance — no community there can rank among
//     the k best.
//
// A pulled stream does NOT hold the update lock between pulls. It captures
// the shard table and index epoch at creation; every open re-takes the read
// lock and, on an index-backed engine, re-checks the epoch: if an update
// swapped the index mid-stream the open fails with ErrEpochChanged rather
// than mixing pre- and post-delta shards. An engine over a tree built
// in-process keeps serving the snapshot — its captured shards are immutable
// heap bytes — so an open stream completes from the pre-delta index.

// ErrEpochChanged reports that the index epoch moved (an applied delta) while a
// stream was open on a lazy engine: the remaining shards would be read from
// post-swap files, so the stream fails cleanly instead of mixing epochs.
// Callers re-issue the query; HTTP surfaces map it to 410 Gone.
var ErrEpochChanged = errors.New("engine: index epoch changed mid-stream; re-issue the query")

// taskRun is the execution record of one plan task — the one record the
// answer, StreamStats, the Explain report and the recorder observation are
// all derived from. A skipped task's record holds the visit the traversal
// would have made; a scheduled task's is filled by open.
type taskRun struct {
	tctree.ShardAnswer
	// dur is the task's wall time (acquire + traversal); load is the part of
	// it spent reading the shard from disk, nonzero only for a task whose
	// open performed the load (the shard was not resident and no concurrent
	// query got there first).
	dur    time.Duration
	load   time.Duration
	opened bool
}

// loaded reports whether the task's open read the shard from disk.
func (r *taskRun) loaded() bool { return r.load > 0 }

// shardCursor is one opened shard's contribution to a pulled stream: its
// communities in lessRanked order (ranked mode) or traversal order (plain).
type shardCursor struct {
	item  itemset.Item
	comms []truss.Community
	pos   int
}

func (c *shardCursor) head() *truss.Community { return &c.comms[c.pos] }

// StreamStats is a snapshot of a stream's execution counters. Counters grow
// as the stream is pulled; ShardsShortCircuited is final only after Close.
type StreamStats struct {
	// Epoch is the index epoch the stream executes against.
	Epoch uint64 `json:"epoch"`
	// Emitted counts the communities the stream has yielded.
	Emitted int `json:"emitted"`
	// RetrievedNodes and VisitedNodes mirror Answer: trusses retrieved
	// and nodes inspected across the opened shards (α*-skipped shards
	// contribute their one synthesized root visit).
	RetrievedNodes int `json:"retrievedNodes"`
	VisitedNodes   int `json:"visitedNodes"`
	// ShardsPlanned counts the shards the plan scheduled (skips excluded);
	// ShardsOpened counts those actually traversed so far; Loads counts the
	// disk loads those opens performed; ShardsSkippedAlpha counts shards the
	// planner pruned from the α* bound alone.
	ShardsPlanned      int `json:"shardsPlanned"`
	ShardsOpened       int `json:"shardsOpened"`
	Loads              int `json:"loads"`
	ShardsSkippedAlpha int `json:"shardsSkippedAlpha"`
	// ShardsShortCircuited counts scheduled shards the stream never opened:
	// the caller stopped (or the k bound was reached) while the α* bounds of
	// the remaining shards provably could not improve the answer. Set by
	// Close, and only for a stream that did not fail: the shards a failed
	// stream never reached were not proven anything.
	ShardsShortCircuited int `json:"shardsShortCircuited"`
}

// Stream is one execution of a query plan; StreamQuery and StreamTopK hand it
// out as a pull-based cursor over the answer. It is NOT safe for concurrent
// use; one goroutine pulls Next until done (nil, nil) and then must Close
// exactly once — Close is what credits the engine's short-circuit accounting
// and emits the recorder observation.
type Stream struct {
	e     *Engine
	ctx   context.Context
	table *shardTable
	epoch uint64

	// plan.Pattern is the canonicalized query pattern; full marks one that
	// covers every indexed item. runs holds one record per plan task.
	plan *QueryPlan
	full bool
	runs []taskRun
	// next counts the opened entries of plan.Order, the schedule: the tasks
	// at plan.Order[next:] are still unopened. A ranked stream re-sorts the
	// schedule into its own open order.
	next int

	ranked bool
	k      int
	// floor holds the k best cohesions a ranked stream with k > 0 has
	// retrieved, and prunes by them; nil otherwise.
	floor   *truss.Floor
	heap    []*shardCursor // the opened, unexhausted shards, keyed by head()
	emitted int
	// held says the caller holds updateMu for reading from plan to last
	// open (TopKWithResultContext), so an open neither re-takes the lock nor
	// re-checks the epoch.
	held bool

	err    error
	closed bool

	start    time.Time
	planDur  time.Duration
	execDur  time.Duration
	mergeDur time.Duration
}

// newStream plans the canonicalized query (eff, alphaQ) over table t and
// returns its execution, nothing opened yet. This is the one place a skip
// decision becomes an answer: an α*-skipped shard contributes exactly the
// one root visit the traversal would have made before finding the root
// truss empty, so answers are byte-identical to an unplanned execution; the
// bloom filter proves no pattern of the shard contains q, and
// that traversal is dropped wholesale, root visit included. Callers hold
// updateMu for reading.
func (e *Engine) newStream(ctx context.Context, t *shardTable, start time.Time, eff itemset.Itemset, full bool, alphaQ float64, mode QueryMode, every bool) *Stream {
	if ctx == nil {
		//lint:ignore ctxflow nil-ctx hardening for direct embedders of the engine; every serving path passes the request context
		ctx = context.Background()
	}
	planStart := time.Now()
	plan := e.plan(t, eff, alphaQ, mode, every)
	st := &Stream{
		e: e, ctx: ctx, table: t, epoch: e.epoch.Load(),
		plan: plan, full: full,
		runs:  make([]taskRun, len(plan.Tasks)),
		start: start,
	}
	for i, task := range plan.Tasks {
		switch task.Decision {
		case DecisionSkipAlpha:
			st.runs[i].Visited = 1
			e.skipped.Add(1)
		case DecisionSkipBloom:
			e.skippedCatalogue.Add(1)
		}
	}
	st.planDur = time.Since(planStart)
	return st
}

// open executes plan task i — the one routine that reads a shard on behalf
// of a query: it gives up if the context is done, takes a traversal slot (so
// the engine-wide worker bound holds across queries and streams alike),
// acquires the shard (loading it on a lazy engine) and traverses it into the
// task's record. Callers hold updateMu for reading.
func (st *Stream) open(i int) error {
	if err := st.ctx.Err(); err != nil {
		return err
	}
	e := st.e
	select {
	case e.sem <- struct{}{}:
	case <-st.ctx.Done():
		return st.ctx.Err()
	}
	defer func() { <-e.sem }()
	s, _ := st.table.lookup(st.plan.Tasks[i].Item)
	run := &st.runs[i]
	start := time.Now()
	view, load, err := e.acquire(s)
	if err != nil {
		run.dur = time.Since(start)
		return fmt.Errorf("engine: shard %d: %w", s.item, err)
	}
	switch {
	case st.plan.Mode == ModeContaining:
		run.ShardAnswer = view.QueryContaining(st.plan.Pattern, st.plan.Alpha)
	case st.full:
		// Every item of every indexed pattern is a shard root, so a pattern
		// covering them all admits every child: nil says so, and the
		// traversal tests none.
		run.ShardAnswer = view.QuerySub(nil, st.plan.Alpha, st.floor)
	default:
		run.ShardAnswer = view.QuerySub(st.plan.Pattern, st.plan.Alpha, st.floor)
	}
	run.dur, run.load, run.opened = time.Since(start), load, true
	return nil
}

// drain opens every scheduled task and concatenates the per-task answers in
// ascending root-item order. The caller and up to workers−1 helpers claim
// schedule positions (par.For), so the tasks open in schedule order and
// each result lands at its position; every open still takes a traversal
// slot, so the worker bound holds across concurrent queries, not just
// within one. Load failures are joined; a done context is reported once,
// not once per shard it kept closed. The caller holds updateMu for reading
// across the call.
func (st *Stream) drain() (*Answer, error) {
	execStart := time.Now()
	order := st.plan.Order
	errs := make([]error, len(order))
	par.For(len(order), st.e.workers, func(n int) {
		errs[n] = st.open(order[n])
	})
	st.next = len(order)
	mergeStart := time.Now()
	st.execDur = mergeStart.Sub(execStart)
	if st.err = st.ctx.Err(); st.err == nil {
		st.err = errors.Join(errs...)
	}
	if st.err != nil {
		return nil, st.err
	}
	total := 0
	for i := range st.runs {
		total += len(st.runs[i].Communities)
	}
	res := &Answer{Communities: make([]truss.Community, 0, total)}
	for i := range st.runs {
		run := &st.runs[i]
		res.Communities = append(res.Communities, run.Communities...)
		res.RetrievedNodes += run.Retrieved
		res.VisitedNodes += run.Visited
	}
	st.mergeDur = time.Since(mergeStart)
	return res, nil
}

// StreamQuery answers (q, alphaQ) as a pull-based stream of communities in
// exactly the order QueryContext(ctx, q, alphaQ).Communities lists them, opening each
// shard only when the previous one is drained — per-query memory is bounded
// by the largest single shard's answer. A nil q means every item. The result
// cache is bypassed in both directions. See Stream for the pulling contract.
func (e *Engine) StreamQuery(ctx context.Context, q itemset.Itemset, alphaQ float64) (*Stream, error) {
	return e.pulled(ctx, q, alphaQ, false, 0), nil
}

// StreamTopK answers (q, alphaQ) as a pull-based stream of ranked
// communities in exactly the order TopKWithResultContext(ctx, q, alphaQ, k)
// ranks them. Shards open lazily in descending α*-bound order and the stream
// ends after k communities (k <= 0 means every community): shards, and
// subtrees within a shard, whose bound cannot reach the k best are never
// loaded or traversed. See Stream.
func (e *Engine) StreamTopK(ctx context.Context, q itemset.Itemset, alphaQ float64, k int) (*Stream, error) {
	return e.pulled(ctx, q, alphaQ, true, k), nil
}

// pulled plans a stream the caller pulls: counted in Streams, planned under
// the update lock, opened later under it.
func (e *Engine) pulled(ctx context.Context, q itemset.Itemset, alphaQ float64, ranked bool, k int) *Stream {
	start := time.Now()
	e.streams.Add(1)
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	return e.stream(ctx, start, q, alphaQ, ranked, k)
}

// stream plans a pulled execution; a ranked one re-sorts its schedule into
// pull order, a plain one opens in the plan's ascending root-item order.
// Callers hold updateMu for reading.
func (e *Engine) stream(ctx context.Context, start time.Time, q itemset.Itemset, alphaQ float64, ranked bool, k int) *Stream {
	t := e.table.Load()
	eff, full := canonical(t, q)
	st := e.newStream(ctx, t, start, eff, full, alphaQ, ModeSub, false)
	st.ranked, st.k = ranked, k
	if ranked {
		if k > 0 {
			st.floor = truss.NewFloor(k)
		}
		// Open order: descending α* bound, so the cohesion-ordered merge can
		// stop opening as soon as the heap head beats the best remaining
		// bound, or the floor does. Ties break on the root item for
		// determinism.
		orderStart := time.Now()
		order, tasks := st.plan.Order, st.plan.Tasks
		sort.Slice(order, func(a, b int) bool {
			ta, tb := tasks[order[a]], tasks[order[b]]
			if ta.MaxAlpha != tb.MaxAlpha {
				return ta.MaxAlpha > tb.MaxAlpha
			}
			return ta.Item < tb.Item
		})
		st.planDur += time.Since(orderStart)
	}
	return st
}

// Next returns the next community of the stream, or (nil, nil) when the
// stream is exhausted (in ranked mode, also once k communities have been
// emitted). The record belongs to the stream's answer and must not be
// modified. An error poisons the stream: every later Next returns it again.
func (st *Stream) Next() (*truss.Community, error) {
	if st.err != nil {
		return nil, st.err
	}
	if st.closed {
		return nil, fmt.Errorf("engine: Next on a closed stream")
	}
	if st.k > 0 && st.emitted >= st.k {
		return nil, nil
	}
	order, tasks := st.plan.Order, st.plan.Tasks
	// Open the next shard when nothing is left to emit, and — ranked — while
	// its α* bound reaches the heap head's cohesion: it could still hold a
	// community that orders before the head (a tie can win on size). A plain
	// stream therefore has one cursor at a time, and emits it whole. Bounds
	// descend along a ranked schedule, so once the floor prunes the next
	// shard it prunes every later one: the stream opens no more.
	for st.next < len(order) && !st.floor.Prunes(tasks[order[st.next]].MaxAlpha) && (len(st.heap) == 0 ||
		st.ranked && tasks[order[st.next]].MaxAlpha >= st.heap[0].head().Cohesion) {
		if st.err = st.openNext(); st.err != nil {
			return nil, st.err
		}
	}
	if len(st.heap) == 0 {
		return nil, nil
	}
	top := st.heap[0]
	rc := top.head()
	top.pos++
	if top.pos == len(top.comms) {
		n := len(st.heap) - 1
		st.heap[0] = st.heap[n]
		st.heap = st.heap[:n]
	}
	siftDown(st.heap, 0, cursorLess)
	st.emitted++
	return rc, nil
}

// openNext opens the next scheduled shard of a pulled stream and pushes its
// communities, if any, onto the merge heap as a cursor — ordered by
// lessRanked in ranked mode: patterns of distinct shards start with distinct
// root items, so merging per-shard sorted lists under the same comparator
// reproduces the top-k global order record for record. Unless the caller
// holds it across the execution, the open takes the engine's update lock for
// reading and re-checks the index epoch on an index-backed engine, so a
// stream never mixes pre- and post-delta shards.
func (st *Stream) openNext() error {
	i := st.plan.Order[st.next]
	st.next++
	e := st.e
	if !st.held {
		e.updateMu.RLock()
		defer e.updateMu.RUnlock()
		if e.idx != nil && e.epoch.Load() != st.epoch {
			return ErrEpochChanged
		}
	}
	if err := st.open(i); err != nil {
		return err
	}
	run := &st.runs[i]
	st.execDur += run.dur
	if len(run.Communities) == 0 {
		return nil
	}
	// The cursor owns the communities from here, so that a plain stream
	// holds one shard's answer at a time.
	cur := &shardCursor{item: st.plan.Tasks[i].Item, comms: run.Communities}
	run.Communities = nil
	if st.ranked {
		slices.SortFunc(cur.comms, compareRanked)
	}
	st.heap = append(st.heap, cur)
	siftUp(st.heap, len(st.heap)-1, cursorLess)
	return nil
}

// cursorLess orders heap cursors by their head community; lessRanked is a
// strict total order across shards (patterns of distinct shards differ in
// their first item), the root item tiebreak is belt and braces.
func cursorLess(a, b *shardCursor) bool {
	if lessRanked(a.head(), b.head()) {
		return true
	}
	if lessRanked(b.head(), a.head()) {
		return false
	}
	return a.item < b.item
}

// Stats snapshots the stream's execution counters.
func (st *Stream) Stats() StreamStats {
	stats := StreamStats{
		Epoch:              st.epoch,
		Emitted:            st.emitted,
		ShardsPlanned:      len(st.plan.Order),
		ShardsSkippedAlpha: st.plan.SkippedAlpha,
	}
	for i := range st.runs {
		run := &st.runs[i]
		stats.RetrievedNodes += run.Retrieved
		stats.VisitedNodes += run.Visited
		if run.opened {
			stats.ShardsOpened++
		}
		if run.loaded() {
			stats.Loads++
		}
	}
	if st.closed && st.err == nil {
		stats.ShardsShortCircuited = len(st.plan.Order) - st.next
	}
	return stats
}

// Close finalizes a pulled stream: the scheduled shards it never opened are
// credited to the engine's short-circuit counter — on a lazy engine those
// shards were never even read from disk — unless the stream failed, and, when
// the engine is observed, one QueryObservation is emitted with the
// plan/execute/stream stage split. Close is idempotent; Next after Close
// errors.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	total := st.finish()
	st.observe(total, total-st.planDur)
}

// finish closes the stream, credits its short-circuited shards to the engine
// and returns its wall time so far.
func (st *Stream) finish() time.Duration {
	st.closed = true
	if n := st.Stats().ShardsShortCircuited; n > 0 {
		st.e.shortCircuited.Add(uint64(n))
	}
	return time.Since(st.start)
}

// observe hands the finished execution to the engine's recorder. stream is
// the pull-driven delivery stage, zero for a drained execution, whose
// delivery is the merge.
func (st *Stream) observe(total, stream time.Duration) {
	e, plan := st.e, st.plan
	if e.recorder == nil {
		return
	}
	stats := st.Stats()
	var load time.Duration
	for i := range st.runs {
		load += st.runs[i].load
	}
	e.recorder.RecordQuery(st.ctx, trace.QueryObservation{
		Network:        e.cacheNS,
		Pattern:        patternLabel(plan.Mode, plan.Pattern, st.full),
		Alpha:          plan.Alpha,
		Err:            st.err != nil,
		Shards:         len(plan.Tasks),
		SkippedShards:  plan.SkippedAlpha + plan.SkippedBloom,
		LoadedShards:   stats.Loads,
		ShortCircuited: stats.ShardsShortCircuited,
		Plan:           st.planDur,
		Execute:        st.execDur,
		Load:           load,
		Merge:          st.mergeDur,
		Stream:         stream,
		Total:          total,
		// Materialized only when the recorder keeps the observation
		// (slow-query capture): fast queries never pay for the report.
		Detail: func() any { return st.report() },
	})
}
