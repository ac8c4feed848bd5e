package graph

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// checkNumbering requires n to number exactly run, and to hold none of
// absent.
func checkNumbering(t *testing.T, label string, n *Numbering, run, absent []VertexID) {
	t.Helper()
	for i, v := range run {
		if got, ok := n.Index(v); !ok || got != i {
			t.Fatalf("%s: Index(%d) = %d, %v; want %d, true", label, v, got, ok, i)
		}
	}
	for _, v := range absent {
		if got, ok := n.Index(v); ok {
			t.Fatalf("%s: Index(%d) = %d, true; the run does not hold it", label, v, got)
		}
	}
}

// TestNumberingMapsARun holds the table to its contract on the runs the
// miner never makes but a caller may: negative ids, ids at both ends of
// int32, a sparse run over a wide window, and one table filled again after
// clearing, whose earlier ids must all be gone.
func TestNumberingMapsARun(t *testing.T) {
	cases := []struct {
		name        string
		run, absent []VertexID
	}{
		{"empty", nil, []VertexID{0, -1, 1, math.MinInt32, math.MaxInt32}},
		{"negative ids", []VertexID{-4, -3, 1, 2, 9}, []VertexID{-5, -2, -1, 0, 3, 8, 10}},
		{"unordered, one vertex", []VertexID{7}, []VertexID{6, 8, 0}},
		{"unordered", []VertexID{5, -2, 11, 0}, []VertexID{-3, -1, 1, 4, 6, 10, 12}},
		{"sparse and wide", []VertexID{-1 << 20, -7, 0, 3, 1 << 20}, []VertexID{-1<<20 - 1, -1<<20 + 1, -6, -1, 1, 2, 4, 1<<20 - 1, 1<<20 + 1}},
		{"narrow after wide", []VertexID{1 << 30, 1<<30 + 2}, []VertexID{-1 << 20, -7, 0, 3, 1 << 20, 1<<30 + 1, 1<<30 + 3}},
		{"lowest ids", []VertexID{math.MinInt32, math.MinInt32 + 2}, []VertexID{math.MinInt32 + 1, math.MinInt32 + 3, math.MaxInt32, -1, 0}},
		{"highest ids", []VertexID{math.MaxInt32 - 1, math.MaxInt32}, []VertexID{math.MaxInt32 - 2, math.MinInt32, math.MinInt32 + 1, 0}},
	}
	// One table throughout, as the pool hands one out again.
	var n Numbering
	for _, c := range cases {
		n.fill(c.run)
		checkNumbering(t, c.name, &n, c.run, c.absent)
		n.clear()
		if i := slices.IndexFunc(n.slot, func(s int32) bool { return s != 0 }); i >= 0 {
			t.Fatalf("%s: slot %d is %d after clearing", c.name, i, n.slot[i])
		}
		checkNumbering(t, c.name+", cleared", &n, nil, c.run)
	}

	// A repeated id keeps its last position; the pool's tables behave alike.
	p := NumberRun([]VertexID{3, 1, 3})
	if i, ok := p.Index(3); !ok || i != 2 {
		t.Fatalf("repeated id: Index(3) = %d, %v; want 2, true", i, ok)
	}
	p.Release()
	q := NumberRun([]VertexID{-9, 4})
	checkNumbering(t, "pooled after release", q, []VertexID{-9, 4}, []VertexID{1, 3})
	q.Release()
}

// TestNumberingSizedByItsIds pins what the table may grow by: the window
// from the smallest to the largest id held, never anything else, and the
// memory it already has when a later run fits.
func TestNumberingSizedByItsIds(t *testing.T) {
	var n Numbering
	n.fill([]VertexID{-5, 5})
	if len(n.slot) != 11 {
		t.Fatalf("window of [-5, 5] has %d slots, want 11", len(n.slot))
	}
	n.clear()
	before := cap(n.slot)
	n.fill([]VertexID{100, 101, 102})
	if len(n.slot) != 3 || cap(n.slot) != before {
		t.Fatalf("a run of 3 ids after one of 11: %d slots of capacity %d, want 3 of %d", len(n.slot), cap(n.slot), before)
	}
	n.clear()
}

// TestNumberingConcurrentRuns numbers overlapping runs from several
// goroutines at once, as the miner's workers do through the pool: every
// table a goroutine holds must number its own run alone.
func TestNumberingConcurrentRuns(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				// Runs of different lengths and offsets over one id range.
				run := make([]VertexID, 0, 32)
				for v := VertexID(g - 2); len(run) < 8+round%24; v += VertexID(1 + (g+round)%3) {
					run = append(run, v)
				}
				n := NumberRun(run)
				for i, v := range run {
					if got, ok := n.Index(v); !ok || got != i {
						t.Errorf("goroutine %d round %d: Index(%d) = %d, %v; want %d", g, round, v, got, ok, i)
					}
				}
				if _, ok := n.Index(run[len(run)-1] + 1); ok {
					t.Errorf("goroutine %d round %d: an id past the run is held", g, round)
				}
				n.Release()
			}
		}(g)
	}
	wg.Wait()
}
