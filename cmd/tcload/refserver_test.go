package main

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"
)

// A reading is a positive rate; one asked for again at once is the same
// reading, and one asked for later is taken anew.
func TestRefClockReadsAndReuses(t *testing.T) {
	srv := httptest.NewServer(refHandler())
	defer srv.Close()
	c := newRefClock(srv.URL)
	defer c.close()
	ctx := context.Background()
	first, err := c.read(ctx, nil)
	if err != nil || first <= 0 {
		t.Fatalf("first reading %g, %v", first, err)
	}
	again, err := c.read(ctx, nil)
	if err != nil || again != first || len(c.readings) != 1 {
		t.Errorf("a reading asked for again at once was taken anew: %g then %g, %d readings, %v", first, again, len(c.readings), err)
	}
	time.Sleep(refReading / 5)
	if _, err := c.read(ctx, nil); err != nil || len(c.readings) != 2 {
		t.Errorf("a later reading was not taken: %d readings, %v", len(c.readings), err)
	}
}

// Reference time is wall time × host speed, slice by slice: a slice that ran
// on a host at half speed counts half its seconds and half its latencies.
func TestReferenceTime(t *testing.T) {
	ok := func(ms int) sample {
		return sample{kind: kindQBP, latency: time.Duration(ms) * time.Millisecond, status: 200}
	}
	slices := []slice{
		{reads: []sample{ok(10), ok(30)}, readWall: 2 * time.Second, speed: 0.5},
		{reads: []sample{ok(12), {kind: kindQBP, latency: time.Second, status: 500}}, readWall: time.Second, speed: 1},
	}
	if got := refSeconds(slices, func(sl *slice) time.Duration { return sl.readWall }); math.Abs(got-2) > 1e-9 {
		t.Errorf("refSeconds = %g, want 2·0.5 + 1·1 = 2", got)
	}
	got := refLatencies(slices, sliceReads, numKinds)
	want := []float64{5, 12, 15} // the failed sample is no latency
	if len(got) != len(want) {
		t.Fatalf("refLatencies = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("refLatencies = %v, want %v", got, want)
		}
	}
}

// A window continued at position first hands out first, first+1, … and sends
// every position it hands out.
func TestClosedLoopContinuesSequence(t *testing.T) {
	srv := httptest.NewServer(refHandler())
	defer srv.Close()
	conns := []*conn{newConn(srv.URL), newConn(srv.URL)}
	defer closeAll(conns)
	next := 0
	seen := make(map[int]bool)
	for k := 0; k < 3; k++ {
		got := closedLoop(context.Background(), conns, window{deadline: time.Now().Add(30 * time.Millisecond), first: next},
			func(int) op { return op{kind: kindQBP, path: refPath} }, func(int) bool { return false })
		for _, s := range got {
			if s.index < next || s.index >= next+len(got) || seen[s.index] {
				t.Fatalf("slice %d starting at %d produced position %d", k, next, s.index)
			}
			seen[s.index] = true
		}
		next += len(got)
	}
	if len(seen) != next || next == 0 {
		t.Errorf("%d positions sent, %d handed out", len(seen), next)
	}
}
