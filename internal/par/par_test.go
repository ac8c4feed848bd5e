package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// loops are the package's two loops, which share one contract.
var loops = []struct {
	name string
	run  func(n, workers int, fn func(i int))
}{{"For", For}, {"Feed", Feed}}

// TestForRunsEveryIndexOnce checks, over a grid of sizes and worker counts,
// that every index runs exactly once, that n = 0 never calls fn, and that
// no more than min(workers, n) calls are ever in flight at once.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, loop := range loops {
		for _, n := range []int{0, 1, 3, 100} {
			for _, workers := range []int{-1, 0, 1, 2, 8, 200} {
				calls := make([]atomic.Int32, n)
				var inFlight, peak atomic.Int32
				loop.run(n, workers, func(i int) {
					now := inFlight.Add(1)
					for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
					}
					calls[i].Add(1)
					inFlight.Add(-1)
				})
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Errorf("%s n=%d workers=%d: index %d ran %d times", loop.name, n, workers, i, c)
					}
				}
				if limit := int32(max(min(workers, n), 1)); n > 0 && peak.Load() > limit {
					t.Errorf("%s n=%d workers=%d: %d calls in flight, limit %d", loop.name, n, workers, peak.Load(), limit)
				}
			}
		}
	}
}

// TestForRunsInlineInIndexOrder appends to a plain slice: with at most one
// worker the calls run on the caller's goroutine, one after another, so
// the slice is the indices in order (and -race sees no shared write).
func TestForRunsInlineInIndexOrder(t *testing.T) {
	for _, loop := range loops {
		for _, workers := range []int{-1, 0, 1} {
			var got []int
			loop.run(50, workers, func(i int) { got = append(got, i) })
			if len(got) != 50 {
				t.Fatalf("%s workers=%d: %d calls, want 50", loop.name, workers, len(got))
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("%s workers=%d: call %d ran index %d", loop.name, workers, i, v)
				}
			}
		}
	}
}

// TestForBoundsCallsInFlight holds every call until min(workers, n) of them
// are in flight at once, so a loop that ran fewer would hang and one that
// ran more would read a higher peak.
func TestForBoundsCallsInFlight(t *testing.T) {
	const n, workers = 40, 4
	for _, loop := range loops {
		var mu sync.Mutex
		cond := sync.NewCond(&mu)
		inFlight, peak, arrived := 0, 0, 0
		loop.run(n, workers, func(int) {
			mu.Lock()
			inFlight++
			peak = max(peak, inFlight)
			if arrived++; arrived == workers {
				cond.Broadcast()
			}
			for arrived < workers {
				cond.Wait()
			}
			inFlight--
			mu.Unlock()
		})
		if peak != workers {
			t.Fatalf("%s: peak calls in flight = %d, want %d", loop.name, peak, workers)
		}
	}
}
