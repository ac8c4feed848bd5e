package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"themecomm/internal/itemset"
	"themecomm/internal/trace"
	"themecomm/internal/truss"
)

// This file is the streaming half of the executor: instead of materializing
// every matching community across all scheduled shards and merging at the
// end (executePlan), a Stream pulls results shard by shard through a
// cursor, so per-query memory is bounded by one shard's answer rather than
// the whole result set.
//
// Two modes share the machinery:
//
//   - plain streams (StreamQuery) yield communities in exactly the
//     materializing Query order — shards in ascending root-item order, each
//     shard in breadth-first truss order — opening each shard only when the
//     previous one is drained;
//   - ranked streams (StreamTopK) yield communities in exactly the
//     materializing TopK order. Each opened shard contributes a sorted
//     per-shard cursor and a k-way heap keyed by lessRanked merges them.
//     Shards open lazily in descending α*-bound order: a shard's α* bound
//     caps the cohesion of every community it can contain, so once the heap
//     head's cohesion strictly beats the best unopened bound, the remaining
//     shards provably cannot contribute an earlier community — when the
//     caller stops at k results, those shards are never loaded or traversed
//     (the engine's ShardsShortCircuited counter tallies them at Close).
//
// Streams bypass the result cache in both directions: a stream is the
// low-memory path, and buffering its whole answer to cache it would defeat
// the point. Repeated identical queries belong on Query/TopK.
//
// Concurrency: a stream does NOT hold the engine's update lock between
// pulls. It captures the shard table and index epoch at creation; every
// shard open re-acquires the read lock and, on lazy engines, re-checks the
// epoch — if an ApplyDelta swapped the index mid-stream, the open fails
// with ErrEpochChanged rather than mixing pre- and post-delta shards. Eager
// engines keep serving the snapshot: their captured subtrees are immutable,
// so an open stream completes entirely from the pre-delta index.

// ErrEpochChanged reports that the index epoch moved (ApplyDelta) while a
// stream was open on a lazy engine: the remaining shards would be read from
// post-swap files, so the stream fails cleanly instead of mixing epochs.
// Callers re-issue the query; HTTP surfaces map it to 410 Gone.
var ErrEpochChanged = errors.New("engine: index epoch changed mid-stream; re-issue the query")

// streamTask is one unopened shard of a stream, carrying the catalogue
// bound the ranked mode orders and short-circuits by.
type streamTask struct {
	item     itemset.Item
	maxAlpha float64
}

// shardCursor is one opened shard's contribution: its communities in
// lessRanked order (ranked mode) or in traversal order (plain mode).
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
	// contribute their one synthesized root visit, like the materializing
	// path).
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
	// the remaining shards provably could not improve the answer. Final
	// after Close.
	ShardsShortCircuited int `json:"shardsShortCircuited"`
}

// Stream is a pull-based cursor over a query answer. It is NOT safe for
// concurrent use; one goroutine pulls Next until done (nil, nil) and then
// must Close exactly once — Close is what credits the engine's
// short-circuit accounting and emits the recorder observation.
type Stream struct {
	e     *Engine
	ctx   context.Context
	table *shardTable
	epoch uint64

	alpha   float64
	pattern itemset.Itemset // traversal pattern (eff, or items for full)
	eff     itemset.Itemset
	full    bool
	ranked  bool
	k       int

	pending []streamTask   // unopened shards, in open order
	heap    []*shardCursor // ranked-mode merge heap, keyed by head()
	cur     *shardCursor   // plain-mode current shard

	stats StreamStats

	err    error
	closed bool

	start   time.Time
	planDur time.Duration
	execDur time.Duration
}

// StreamQuery answers (q, alphaQ) as a pull-based stream of communities in
// exactly the order Query(q, alphaQ).Communities() returns them, opening
// each shard only when the previous one is drained — per-query memory is
// bounded by the largest single shard's answer. A nil q means every item.
// The result cache is bypassed in both directions. See Stream for the
// pulling contract.
func (e *Engine) StreamQuery(ctx context.Context, q itemset.Itemset, alphaQ float64) (*Stream, error) {
	return e.newStream(ctx, q, alphaQ, false, 0)
}

// StreamTopK answers (q, alphaQ) as a pull-based stream of ranked
// communities in exactly the order TopK(q, alphaQ, k) returns them. Shards
// open lazily in descending α*-bound order and the stream ends after k
// communities (k <= 0 means every community): shards whose bound cannot
// beat the already-emitted answer are never loaded or traversed. See
// Stream.
func (e *Engine) StreamTopK(ctx context.Context, q itemset.Itemset, alphaQ float64, k int) (*Stream, error) {
	return e.newStream(ctx, q, alphaQ, true, k)
}

func (e *Engine) newStream(ctx context.Context, q itemset.Itemset, alphaQ float64, ranked bool, k int) (*Stream, error) {
	if ctx == nil {
		//lint:ignore ctxflow nil-ctx hardening for direct embedders of the engine; every serving path passes the request context
		ctx = context.Background()
	}
	start := time.Now()
	e.streams.Add(1)
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	t := e.table.Load()
	eff, full := canonical(t, q)
	st := &Stream{
		e: e, ctx: ctx, table: t, epoch: e.epoch.Load(),
		alpha: alphaQ, eff: eff, full: full, ranked: ranked, k: k,
		start: start,
	}
	st.stats.Epoch = st.epoch
	planStart := time.Now()
	plan := e.planRelevant(t, eff, alphaQ)
	st.pattern = plan.Pattern
	if st.pattern == nil {
		st.pattern = t.items
	}
	for _, task := range plan.Tasks {
		if task.Decision == DecisionSkipAlpha {
			// Mirror the materializing executor: a pruned shard contributes
			// the one root visit the traversal would have made before finding
			// the root truss empty.
			st.stats.VisitedNodes++
			st.stats.ShardsSkippedAlpha++
			e.skipped.Add(1)
			continue
		}
		st.pending = append(st.pending, streamTask{item: task.Item, maxAlpha: task.MaxAlpha})
	}
	st.stats.ShardsPlanned = len(st.pending)
	if ranked {
		// Open order: descending α* bound, so the cohesion-ordered merge can
		// stop opening as soon as the heap head beats the best remaining
		// bound. Ties break on the root item for determinism.
		sort.SliceStable(st.pending, func(i, j int) bool {
			a, b := st.pending[i], st.pending[j]
			if a.maxAlpha != b.maxAlpha {
				return a.maxAlpha > b.maxAlpha
			}
			return a.item < b.item
		})
	}
	st.planDur = time.Since(planStart)
	return st, nil
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
	var rc *truss.Community
	var err error
	if st.ranked {
		rc, err = st.nextRanked()
	} else {
		rc, err = st.nextPlain()
	}
	if err != nil {
		st.err = err
		return nil, err
	}
	if rc != nil {
		st.stats.Emitted++
	}
	return rc, nil
}

// nextRanked advances the cohesion-ordered merge: open pending shards while
// their α* bound could still beat the current heap head, then emit the head.
func (st *Stream) nextRanked() (*truss.Community, error) {
	if st.k > 0 && st.stats.Emitted >= st.k {
		return nil, nil
	}
	for {
		if len(st.heap) == 0 {
			if len(st.pending) == 0 {
				return nil, nil
			}
			if err := st.openNext(); err != nil {
				return nil, err
			}
			continue
		}
		if len(st.pending) > 0 && st.pending[0].maxAlpha >= st.heap[0].head().Cohesion {
			// An unopened shard could still hold a community that orders
			// before the head: its bound reaches (or ties) the head's
			// cohesion, and a tie can win on size. Open it first.
			if err := st.openNext(); err != nil {
				return nil, err
			}
			continue
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
		return rc, nil
	}
}

// nextPlain drains shards in ascending root-item order, opening each on
// demand.
func (st *Stream) nextPlain() (*truss.Community, error) {
	for {
		if st.cur != nil && st.cur.pos < len(st.cur.comms) {
			c := st.cur.head()
			st.cur.pos++
			return c, nil
		}
		st.cur = nil
		if len(st.pending) == 0 {
			return nil, nil
		}
		if err := st.openNext(); err != nil {
			return nil, err
		}
	}
}

// openNext opens the first pending shard: acquire (loading it on a lazy
// engine), traverse, and — in ranked mode — order its communities by
// lessRanked and push the cursor onto the merge heap. Patterns of distinct
// shards start with distinct root items, so merging per-shard sorted lists
// under the same comparator reproduces TopK's global order record for
// record. The open holds the engine's update lock for reading and re-checks
// the index epoch on lazy engines, so a stream never mixes pre- and
// post-delta shards; it also takes a traversal slot, so the engine-wide
// worker bound holds across streams and queries alike.
func (st *Stream) openNext() error {
	task := st.pending[0]
	st.pending = st.pending[1:]
	e := st.e
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	if e.idx != nil && e.epoch.Load() != st.epoch {
		return ErrEpochChanged
	}
	s, ok := st.table.lookup(task.item)
	if !ok {
		return fmt.Errorf("engine: shard %d vanished from the stream's table", task.item)
	}
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	start := time.Now()
	view, loaded, err := e.acquire(s)
	if err != nil {
		return fmt.Errorf("engine: shard %d: %w", s.item, err)
	}
	sa := view.QuerySub(st.pattern, st.alpha)
	cur := &shardCursor{item: s.item, comms: sa.Communities}
	if !st.ranked {
		st.cur = cur
	} else if len(cur.comms) > 0 {
		slices.SortFunc(cur.comms, compareRanked)
		st.heap = append(st.heap, cur)
		siftUp(st.heap, len(st.heap)-1, cursorLess)
	}
	st.stats.ShardsOpened++
	if loaded {
		st.stats.Loads++
	}
	st.stats.VisitedNodes += sa.Visited
	st.stats.RetrievedNodes += sa.Retrieved
	st.execDur += time.Since(start)
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
func (st *Stream) Stats() StreamStats { return st.stats }

// Err returns the error that poisoned the stream, if any.
func (st *Stream) Err() error { return st.err }

// Close finalizes the stream: the scheduled shards it never opened are
// credited to the engine's short-circuit counter — on a lazy engine those
// shards were never even read from disk — and, when the engine is observed,
// one QueryObservation is emitted with the plan/execute/stream stage split.
// Close is idempotent; Next after Close errors.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	st.stats.ShardsShortCircuited = len(st.pending)
	e := st.e
	if n := len(st.pending); n > 0 {
		e.shortCircuited.Add(uint64(n))
	}
	if e.recorder == nil {
		return
	}
	stats := st.stats
	total := time.Since(st.start)
	e.recorder.RecordQuery(st.ctx, trace.QueryObservation{
		Network:        e.cacheNS,
		Pattern:        patternLabel(st.eff, st.full),
		Alpha:          st.alpha,
		Err:            st.err != nil,
		Shards:         stats.ShardsPlanned + stats.ShardsSkippedAlpha,
		SkippedShards:  stats.ShardsSkippedAlpha,
		LoadedShards:   stats.Loads,
		ShortCircuited: stats.ShardsShortCircuited,
		Plan:           st.planDur,
		Execute:        st.execDur,
		Stream:         total - st.planDur,
		Total:          total,
		Detail:         func() any { return st.streamReport(stats) },
	})
}

// streamReport renders the stream's Explain-shaped detail for the slow-query
// log: the per-shard schedule with what was opened, skipped and
// short-circuited.
func (st *Stream) streamReport(stats StreamStats) *ExplainReport {
	return &ExplainReport{
		Pattern:        st.eff,
		Full:           st.full,
		Alpha:          st.alpha,
		Planner:        st.e.Planner(),
		Lazy:           st.e.Lazy(),
		Workers:        st.e.workers,
		Shards:         stats.ShardsPlanned + stats.ShardsSkippedAlpha,
		SkippedAlpha:   stats.ShardsSkippedAlpha,
		Loaded:         stats.Loads,
		ShortCircuited: stats.ShardsShortCircuited,
		RetrievedNodes: stats.RetrievedNodes,
		VisitedNodes:   stats.VisitedNodes,
	}
}
