package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"
)

// refPath is the one route of the reference server.
const refPath = "/ref"

// refAnswer is the fixed answer of the reference server: the shape and size
// (about 1.1 kB) of a cached query-by-pattern answer.
type refAnswer struct {
	Pattern     []string       `json:"pattern"`
	Alpha       float64        `json:"alpha"`
	Communities []refCommunity `json:"communities"`
	Visited     int            `json:"visitedNodes"`
	Micros      int64          `json:"queryMicros"`
}

type refCommunity struct {
	Theme    []string `json:"theme"`
	Vertices []string `json:"vertices"`
	Edges    int      `json:"edges"`
}

func newRefAnswer() *refAnswer {
	a := &refAnswer{Pattern: []string{"kw-c3-17", "kw-c3-4"}, Alpha: 0.1, Visited: 41, Micros: 3}
	for c := 0; c < 6; c++ {
		rc := refCommunity{Theme: []string{"kw-c3-17", "kw-c3-" + strconv.Itoa(c)}, Edges: 20 + c}
		for v := 0; v < 14; v++ {
			rc.Vertices = append(rc.Vertices, strconv.Itoa(100*c+7*v))
		}
		a.Communities = append(a.Communities, rc)
	}
	return a
}

// refHandler answers refPath with the reference answer, encoded afresh on
// every request, and /healthz for the spawn.
func refHandler() http.Handler {
	answer := newRefAnswer()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc(refPath, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(answer) // a closed connection is the client's concern
	})
	return mux
}

// runRefServer serves refHandler on 127.0.0.1:0 until killed. It announces
// its address the way tcserver does, so startChild can parse it.
func runRefServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "listening on %s\n", ln.Addr())
	return http.Serve(ln, refHandler())
}

// The reference clock. The sandbox the benchmark runs on is a few vCPUs of a
// shared host with weather: for tens of seconds to minutes, wake-ups, short
// requests and fork-join work run 15–40 % slower, with no steal time
// reported — more than the driver lets a metric spread, and no window a run
// can afford averages it out. The reference server is work that never
// changes, of the kind the benchmark measures (HTTP over loopback between two
// processes, a JSON answer); the rate it sustains right now, against the rate
// it sustains on a calm minute, is the host's speed. A run alternates between
// its work and readings of this clock, and reports times in reference time:
// wall time × host speed (which metrics, and why not all: spec.requestBound
// and README.md).
const (
	refReading = 500 * time.Millisecond
	// refNominal is the reading on a calm minute of the sandbox the benchmark
	// was written on, in requests per second. It only scales the corrected
	// metrics; comparisons between runs do not depend on it.
	refNominal = 18000.0
)

type refClock struct {
	conns    []*conn
	readings []float64 // requests per second, in order
	lastAt   time.Time // when the latest reading ended
}

func newRefClock(base string) *refClock {
	return &refClock{conns: []*conn{newConn(base), newConn(base)}}
}

func (c *refClock) close() { closeAll(c.conns) }

// read takes one reading: two closed-loop connections for refReading, with
// the server under test stopped (SIGSTOP) meanwhile, so that its garbage
// collector and its checkpoints do not take the CPU the reading measures. A
// reading that ended a moment ago is returned again, so that back-to-back
// stretches (set-up pass, update tail, window) share the reading between them.
func (c *refClock) read(ctx context.Context, srv *child) (float64, error) {
	if len(c.readings) > 0 && time.Since(c.lastAt) < refReading/10 {
		return c.readings[len(c.readings)-1], nil
	}
	if srv != nil {
		defer srv.pause()()
	}
	start := time.Now()
	got := closedLoop(ctx, c.conns, window{deadline: start.Add(refReading)},
		func(int) op { return op{kind: kindQBP, path: refPath} }, func(int) bool { return false })
	took := time.Since(start)
	for i := range got {
		if !got[i].ok() {
			return 0, fmt.Errorf("reference server: %s", got[i].describe())
		}
	}
	if len(got) == 0 {
		return 0, fmt.Errorf("reference server answered nothing in %v", took)
	}
	rate := float64(len(got)) / took.Seconds()
	c.readings = append(c.readings, rate)
	c.lastAt = time.Now()
	return rate, nil
}

// speed is the host's speed over a stretch between two readings.
func speed(before, after float64) float64 { return (before + after) / 2 / refNominal }
