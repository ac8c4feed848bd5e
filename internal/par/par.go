// Package par holds the module's bounded parallel loops: the miners
// evaluate a level's candidates on them, the TC-Tree build mines and writes
// its shards on them, the executor opens a query's shards on them, and the
// batch and federation fan-outs run their members on them. Both loops run
// fn(i) once for every i in [0, n), start the calls in ascending index
// order and return once every call has returned; they differ only in how a
// goroutine gets its next index.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n). The caller and at most
// min(workers, n)−1 helper goroutines claim indices from one counter, so
// claiming never blocks; with workers <= 1 or n <= 1, fn runs inline on the
// caller's goroutine and no goroutine starts. Calls may overlap, so fn must
// write only state of its own index (results[i]) or synchronise what it
// shares. For suits many short calls: a query's shard opens, a miner's
// candidates, a batch's queries, a federation's members.
func For(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// Feed calls fn(i) for every i in [0, n) like For, but the caller hands
// each index over an unbuffered channel to one of min(workers, n) helper
// goroutines and runs no call itself; with workers <= 1 or n <= 1, fn runs
// inline. Every hand-off is a scheduling point: a helper waiting for its
// next index gives up its processor, so requests that arrive while a long
// fan-out keeps every processor busy run between two calls rather than
// after the whole loop. That costs a context switch per call, which For's
// short calls cannot afford and mining a shard (tctree's mineShards) does
// not notice. fn has For's contract.
func Feed(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		For(n, 1, fn)
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
