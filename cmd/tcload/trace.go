package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one replayed operation share
// its op id; parent is the span that caused this one (0 = a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory and writes them out when the run ends. It is
// used from one goroutine (the ladder replays operations one at a time).
type tracer struct {
	spans []span
}

// start opens a span and returns its id.
func (t *tracer) start(parent, op int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Now() }

// call records fn as one span.
func (t *tracer) call(parent, op int, name string, fn func()) {
	id := t.start(parent, op, name)
	fn()
	t.end(id)
}

// spanStats are the count and total duration of every span name.
type spanStats struct {
	count map[string]int
	total map[string]time.Duration
}

func (t *tracer) stats() spanStats {
	st := spanStats{count: map[string]int{}, total: map[string]time.Duration{}}
	for _, s := range t.spans {
		st.count[s.Name]++
		st.total[s.Name] += s.End.Sub(s.Start)
	}
	return st
}

// meanMS is the mean duration of the named span in milliseconds; 0 when the
// ladder never recorded one.
func (st spanStats) meanMS(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return float64(st.total[name]) / float64(st.count[name]) / float64(time.Millisecond)
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
