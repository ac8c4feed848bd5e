package federation

import (
	"context"
	"fmt"

	"themecomm/internal/engine"
	"themecomm/internal/truss"
)

// This file is the federation's streaming layer: cross-network answers
// delivered through pull-based cursors instead of materialized lists, built
// on engine.StreamQuery / engine.StreamTopK so each member's shards open
// only as the merged stream is pulled.
//
//   - StreamTopKAll merges the members' ranked streams through a heap keyed
//     by (engine.LessRanked, network name) — exactly TopKAll's order — and
//     pulls each member at most once per emitted community, so per-network
//     top-k early termination (shards short-circuited by their α* bound)
//     carries through to the federated call;
//   - StreamQueryAll drains the members sequentially in ascending name
//     order, matching QueryAll's response order, with at most one member
//     stream open at a time.
//
// Unlike the materializing calls, which keep a failing network's error
// aside and answer from the rest, a member failure mid-stream poisons the
// merged stream: communities already emitted cannot be recalled, so
// continuing without the failed member would silently deliver an answer no
// materializing call could produce.

// netCursor is one member's stream with its buffered head.
type netCursor struct {
	name string
	st   *engine.Stream
	head *truss.Community
}

// MergedStream is a pull-based cursor over a cross-network answer. Like
// engine.Stream it is single-goroutine and must be closed exactly once;
// Close closes every member stream (crediting their short-circuit
// accounting).
type MergedStream struct {
	ranked bool
	k      int

	heap []*netCursor // ranked mode, keyed by (head, name)
	seq  []*netCursor // plain mode, ascending name order
	// all keeps every member cursor — including those drained out of the
	// heap or never admitted (empty members) — so Close reaches them all.
	all []*netCursor

	emitted int
	err     error
	closed  bool
}

// StreamTopKAll opens one ranked stream per attached network (resolve maps
// the pattern into each tenant's item space) and merges them into a single
// stream ordered exactly like TopKAll: cohesion descending, then size, then
// the pattern/vertex tiebreak, then the network name. k <= 0 means every
// community. Member shards open only as the merged stream is pulled, so each
// tenant's top-k early termination still applies.
func (f *Federation) StreamTopKAll(ctx context.Context, resolve PatternResolver, alphaQ float64, k int) (*MergedStream, error) {
	f.streamAlls.Add(1)
	ms := &MergedStream{ranked: true, k: k}
	ms.all = f.memberCursors(ctx, resolve, alphaQ, true, k)
	for _, c := range ms.all {
		// Buffer each member's head: the heap cannot order a member before
		// its first community is known. This pull opens only the shards the
		// member's own bound ordering requires for its best community.
		if err := ms.advance(c); err != nil {
			ms.Close()
			return nil, err
		}
		if c.head != nil {
			ms.heap = append(ms.heap, c)
			ms.siftUp(len(ms.heap) - 1)
		}
	}
	return ms, nil
}

// StreamQueryAll opens one plain stream per attached network and
// concatenates them in ascending network-name order — QueryAll's response
// order — keeping at most one member's shard answer buffered at a time.
func (f *Federation) StreamQueryAll(ctx context.Context, resolve PatternResolver, alphaQ float64) (*MergedStream, error) {
	f.streamAlls.Add(1)
	ms := &MergedStream{}
	ms.seq = f.memberCursors(ctx, resolve, alphaQ, false, 0)
	ms.all = ms.seq
	return ms, nil
}

// memberCursors opens one engine stream per attached network, returned in
// ascending name order. Opening an engine stream only plans — no shard is
// loaded or traversed until the stream is pulled.
func (f *Federation) memberCursors(ctx context.Context, resolve PatternResolver, alphaQ float64, ranked bool, k int) []*netCursor {
	tasks := f.snapshot(resolve)
	cursors := make([]*netCursor, 0, len(tasks))
	for _, t := range tasks {
		var st *engine.Stream
		var err error
		if ranked {
			st, err = t.net.eng.StreamTopK(ctx, t.q, alphaQ, k)
		} else {
			st, err = t.net.eng.StreamQuery(ctx, t.q, alphaQ)
		}
		if err != nil {
			// Cannot happen today (opening a stream only plans), but a future
			// failure mode should not crash the merge.
			continue
		}
		cursors = append(cursors, &netCursor{name: t.net.name, st: st})
	}
	return cursors
}

// advance pulls the cursor's next head, annotating errors with the network.
func (ms *MergedStream) advance(c *netCursor) error {
	rc, err := c.st.Next()
	if err != nil {
		return fmt.Errorf("network %q: %w", c.name, err)
	}
	c.head = rc
	return nil
}

// Next returns the next community of the merged answer, annotated with its
// network, or (nil, nil) when the stream is exhausted (ranked mode: also
// once k communities have been emitted). An error poisons the stream.
func (ms *MergedStream) Next() (*NetworkRanked, error) {
	if ms.err != nil {
		return nil, ms.err
	}
	if ms.closed {
		return nil, fmt.Errorf("federation: Next on a closed stream")
	}
	var nr *NetworkRanked
	var err error
	if ms.ranked {
		nr, err = ms.nextRanked()
	} else {
		nr, err = ms.nextPlain()
	}
	if err != nil {
		ms.err = err
		return nil, err
	}
	if nr != nil {
		ms.emitted++
	}
	return nr, nil
}

func (ms *MergedStream) nextRanked() (*NetworkRanked, error) {
	if ms.k > 0 && ms.emitted >= ms.k {
		return nil, nil
	}
	if len(ms.heap) == 0 {
		return nil, nil
	}
	top := ms.heap[0]
	out := &NetworkRanked{Network: top.name, Community: *top.head}
	if err := ms.advance(top); err != nil {
		return nil, err
	}
	if top.head == nil {
		n := len(ms.heap) - 1
		ms.heap[0] = ms.heap[n]
		ms.heap = ms.heap[:n]
	}
	ms.siftDown(0)
	return out, nil
}

func (ms *MergedStream) nextPlain() (*NetworkRanked, error) {
	for len(ms.seq) > 0 {
		c := ms.seq[0]
		if err := ms.advance(c); err != nil {
			return nil, err
		}
		if c.head != nil {
			return &NetworkRanked{Network: c.name, Community: *c.head}, nil
		}
		ms.seq = ms.seq[1:]
	}
	return nil, nil
}

// rankedLess is the cross-network order of TopKAll and StreamTopKAll:
// engine.LessRanked, network name as the final tiebreak.
func rankedLess(a *truss.Community, aNet string, b *truss.Community, bNet string) bool {
	if engine.LessRanked(a, b) {
		return true
	}
	if engine.LessRanked(b, a) {
		return false
	}
	return aNet < bNet
}

// cursorLess orders member cursors by their buffered head (rankedLess).
func cursorLess(a, b *netCursor) bool { return rankedLess(a.head, a.name, b.head, b.name) }

func (ms *MergedStream) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !cursorLess(ms.heap[i], ms.heap[parent]) {
			return
		}
		ms.heap[i], ms.heap[parent] = ms.heap[parent], ms.heap[i]
		i = parent
	}
}

func (ms *MergedStream) siftDown(i int) {
	n := len(ms.heap)
	for {
		best := i
		if l := 2*i + 1; l < n && cursorLess(ms.heap[l], ms.heap[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && cursorLess(ms.heap[r], ms.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		ms.heap[i], ms.heap[best] = ms.heap[best], ms.heap[i]
		i = best
	}
}

// Err returns the error that poisoned the stream, if any.
func (ms *MergedStream) Err() error { return ms.err }

// Close closes every member stream. Idempotent; Next after Close errors.
func (ms *MergedStream) Close() {
	if ms.closed {
		return
	}
	ms.closed = true
	for _, c := range ms.all {
		c.st.Close()
	}
	ms.all, ms.heap, ms.seq = nil, nil, nil
}
