package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed operation as the load generator saw it.
type sample struct {
	index   int // position in the read (or update) sequence
	kind    opKind
	latency time.Duration
	late    time.Duration // open loop only: dispatch time − due time
	bytes   int64
	status  int   // 0 on a transport error
	err     error // transport error, if any
	body    []byte
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// conn is one connection of the load generator: an HTTP client pinned to a
// single TCP connection, so "2 connections" means two sockets.
type conn struct {
	client *http.Client
	base   string
	buf    []byte
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base, buf: make([]byte, 64<<10)}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one operation and reads the answer raw to its last byte. Nothing
// is decoded here: decoding megabytes of JSON per second in the generator
// would take a core from the server it measures. keep retains the body for
// the answer checks that run after the window.
func (c *conn) do(ctx context.Context, o op, keep bool) (status int, n int64, body []byte, err error) {
	var req *http.Request
	if o.kind == kindUpdate {
		payload, merr := json.Marshal(o.update)
		if merr != nil {
			return 0, 0, nil, merr
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/v1/update", bytes.NewReader(payload))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+o.path, nil)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	var kept bytes.Buffer
	for {
		m, rerr := resp.Body.Read(c.buf)
		n += int64(m)
		if keep {
			kept.Write(c.buf[:m])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return resp.StatusCode, n, nil, rerr
		}
	}
	if keep {
		body = kept.Bytes()
	}
	return resp.StatusCode, n, body, nil
}

// timed runs one operation and records it, timing from start (the send
// instant of a closed loop, the due instant of an open loop).
func (c *conn) timed(ctx context.Context, o op, index int, keep bool, start time.Time) sample {
	status, n, body, err := c.do(ctx, o, keep)
	return sample{index: index, kind: o.kind, latency: time.Since(start), bytes: n, status: status, err: err, body: body}
}

// window bounds one measured interval: it ends at the deadline, or earlier
// once maxOps operations of a stream were issued (0 = no cap). Fixed counts
// make operation counts repeat exactly; the deadline bounds the run. A window
// that continues a sequence starts it at position first.
type window struct {
	deadline time.Time
	maxOps   int
	first    int
}

// closedLoop drives n connections, each sending its next operation only after
// the previous answer's last byte: next hands out sequence positions, so the
// connections together walk one deterministic sequence. keep says which
// positions retain their body.
func closedLoop(ctx context.Context, conns []*conn, w window, gen func(i int) op, keep func(i int) bool) []sample {
	var next atomic.Int64
	results := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for ctx.Err() == nil {
				// The deadline is checked before a position is taken, so
				// every position handed out is sent and the next window
				// continues the sequence without a gap.
				start := time.Now()
				if !start.Before(w.deadline) {
					return
				}
				k := int(next.Add(1) - 1)
				if w.maxOps > 0 && k >= w.maxOps {
					return
				}
				i := w.first + k
				results[ci] = append(results[ci], c.timed(ctx, gen(i), i, keep(i), start))
			}
		}(ci, c)
	}
	wg.Wait()
	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// openLoop sends on a fixed schedule from one connection: request k is due at
// start + k/rate. Latency runs from the due instant, so a stall is charged to
// every request it delays instead of quietly lowering the offered rate; late
// records how far behind its due instant each request was dispatched.
func openLoop(ctx context.Context, c *conn, start time.Time, w window, rate float64, gen func(i int) op, keep func(i int) bool) []sample {
	period := time.Duration(float64(time.Second) / rate)
	var out []sample
	for k := 0; ctx.Err() == nil; k++ {
		if w.maxOps > 0 && k >= w.maxOps {
			break
		}
		due := start.Add(time.Duration(k) * period)
		if !due.Before(w.deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(wait):
			}
		}
		late := time.Since(due)
		i := w.first + k
		s := c.timed(ctx, gen(i), i, keep(i), due)
		s.late = late
		out = append(out, s)
	}
	return out
}

// describe renders a failed sample for the report.
func (s *sample) describe() string {
	if s.err != nil {
		return fmt.Sprintf("%s #%d: %v", kindNames[s.kind], s.index, s.err)
	}
	return fmt.Sprintf("%s #%d: HTTP %d", kindNames[s.kind], s.index, s.status)
}
