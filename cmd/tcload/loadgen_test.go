package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A deliberately slow handler must show up as latency in the open loop, not
// as a lower offered rate: request k is charged from the instant it was due,
// and every scheduled request is still sent.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const (
		service = 30 * time.Millisecond
		rate    = 100.0 // one request due every 10 ms: three times what the handler sustains
		n       = 20
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()

	start := time.Now()
	w := window{deadline: start.Add(time.Minute), maxOps: n}
	samples := openLoop(context.Background(), c, start, w, rate,
		func(int) op { return op{kind: kindQBP, path: "/"} }, func(int) bool { return false })
	if len(samples) != n {
		t.Fatalf("open loop sent %d requests, want all %d scheduled", len(samples), n)
	}
	for _, s := range samples {
		if !s.ok() {
			t.Fatalf("request failed: %s", s.describe())
		}
	}
	// Request k is due at 10k ms but cannot start before 30k ms: the last
	// one waited about 19·20 ms before it was even sent.
	last := samples[n-1]
	wantLate := time.Duration(n-1) * (service - 10*time.Millisecond)
	if last.late < wantLate*8/10 {
		t.Errorf("last request dispatched %v late, want about %v", last.late, wantLate)
	}
	if last.latency < last.late+service*8/10 {
		t.Errorf("last latency %v does not include its %v wait behind the stall", last.latency, last.late)
	}
	if samples[0].latency > last.latency/2 {
		t.Errorf("latency did not grow along the backlog: first %v, last %v", samples[0].latency, last.latency)
	}
}

func TestClosedLoopWalksOneSequence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(r.URL.Path))
	}))
	defer srv.Close()
	conns := []*conn{newConn(srv.URL), newConn(srv.URL)}
	defer closeAll(conns)
	const n = 200
	samples := closedLoop(context.Background(), conns, window{deadline: time.Now().Add(time.Minute), maxOps: n},
		func(i int) op { return op{kind: kindQBP, path: "/p"} }, func(i int) bool { return i%20 == 0 })
	seen := make(map[int]bool)
	kept := 0
	for _, s := range samples {
		if seen[s.index] || !s.ok() || s.bytes != 2 {
			t.Fatalf("bad sample %+v", s)
		}
		seen[s.index] = true
		if s.body != nil {
			kept++
		}
	}
	if len(seen) != n || kept != n/20 {
		t.Errorf("closed loop ran %d distinct operations and kept %d bodies, want %d and %d", len(seen), kept, n, n/20)
	}
}
