package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRequestIDRoundTrip(t *testing.T) {
	ctx := WithRequestID(context.Background(), "abc123")
	if got := RequestIDFrom(ctx); got != "abc123" {
		t.Fatalf("RequestIDFrom = %q, want abc123", got)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("RequestIDFrom(empty ctx) = %q, want empty", got)
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if id == "" || seen[id] {
			t.Fatalf("NewRequestID produced empty or duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestSanitizeRequestID(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"abc-123", "abc-123"},
		{"has\nnewline", "hasnewline"},
		{"tab\tand\rcr", "tabandcr"},
		{strings.Repeat("x", 300), strings.Repeat("x", maxRequestIDLen)},
		{"", ""},
	} {
		if got := SanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3, time.Millisecond)
	if l.Capacity() != 3 || l.Threshold() != time.Millisecond {
		t.Fatalf("capacity/threshold = %d/%v", l.Capacity(), l.Threshold())
	}
	for i := 0; i < 5; i++ {
		l.Add(SlowQuery{Pattern: fmt.Sprintf("q%d", i)})
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
	entries := l.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	for i, want := range []string{"q4", "q3", "q2"} { // newest first
		if entries[i].Pattern != want {
			t.Fatalf("entries[%d].Pattern = %q, want %q", i, entries[i].Pattern, want)
		}
	}
}

func TestObserverRecordQuery(t *testing.T) {
	var logBuf bytes.Buffer
	o := NewObserver(ObserverOptions{
		SlowThreshold: 10 * time.Millisecond,
		SlowLogSize:   4,
		Logger:        slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})

	detailCalls := 0
	fast := QueryObservation{
		Network: "alpha", Pattern: "*", Alpha: 0.5,
		Plan: time.Millisecond, Execute: 2 * time.Millisecond, Merge: time.Millisecond,
		Total:  4 * time.Millisecond,
		Detail: func() any { detailCalls++; return "plan" },
	}
	o.RecordQuery(context.Background(), fast)
	if detailCalls != 0 {
		t.Fatalf("fast query materialized Detail")
	}
	if len(o.SlowLog().Entries()) != 0 {
		t.Fatalf("fast query landed in slow log")
	}

	hit := QueryObservation{Network: "alpha", CacheHit: true, Total: 50 * time.Millisecond}
	o.RecordQuery(context.Background(), hit) // slow but a hit: not captured
	if len(o.SlowLog().Entries()) != 0 {
		t.Fatalf("cache hit landed in slow log")
	}

	ctx := WithRequestID(context.Background(), "req-42")
	slow := QueryObservation{
		Network: "alpha", Pattern: "*", Alpha: 0.5,
		Shards: 8, SkippedShards: 2, LoadedShards: 3,
		Plan: time.Millisecond, Execute: 40 * time.Millisecond, Load: 30 * time.Millisecond, Merge: time.Millisecond,
		Total:  42 * time.Millisecond,
		Detail: func() any { detailCalls++; return map[string]int{"tasks": 8} },
	}
	o.RecordQuery(ctx, slow)
	if detailCalls != 1 {
		t.Fatalf("slow query did not materialize Detail exactly once: %d", detailCalls)
	}
	entries := o.SlowLog().Entries()
	if len(entries) != 1 {
		t.Fatalf("slow log entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.RequestID != "req-42" || e.Network != "alpha" || e.Shards != 8 || e.Plan == nil {
		t.Fatalf("slow entry = %+v", e)
	}
	if !strings.Contains(logBuf.String(), `"slow query"`) || !strings.Contains(logBuf.String(), `"req-42"`) {
		t.Fatalf("slow log line missing fields: %s", logBuf.String())
	}

	out := o.Registry().Render()
	for _, want := range []string{
		`tc_queries_total{network="alpha",result="hit"} 1`,
		`tc_queries_total{network="alpha",result="miss"} 2`,
		`tc_slow_queries_total{network="alpha"} 1`,
		`tc_query_duration_seconds_count{network="alpha"} 3`,
		`tc_query_stage_duration_seconds_count{network="alpha",stage="execute"} 2`,
		// Only the query that read shards from disk carries the load stage.
		`tc_query_stage_duration_seconds_count{network="alpha",stage="load"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestObserverDisabledThreshold(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	o.RecordQuery(context.Background(), QueryObservation{Total: time.Hour})
	if got := o.SlowLog().Total(); got != 0 {
		t.Fatalf("capture with zero threshold: total = %d", got)
	}
}

func TestHTTPMetricsWrap(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	m := NewHTTPMetrics(reg, slog.New(slog.NewJSONHandler(&logBuf, nil)))

	var gotCtxID string
	h := m.Wrap("/api/v1/query", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCtxID = RequestIDFrom(r.Context())
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, "nope")
	}))

	req := httptest.NewRequest("GET", "/api/v1/query?q=*", nil)
	req.Header.Set(HeaderRequestID, "client-id-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if gotCtxID != "client-id-1" {
		t.Fatalf("context request ID = %q, want client-id-1", gotCtxID)
	}
	if got := rec.Header().Get(HeaderRequestID); got != "client-id-1" {
		t.Fatalf("echoed request ID = %q", got)
	}

	// No client ID: one is generated and echoed.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/query", nil))
	if rec.Header().Get(HeaderRequestID) == "" {
		t.Fatalf("no generated request ID on response")
	}

	out := reg.Render()
	for _, want := range []string{
		`tc_http_requests_total{route="/api/v1/query",method="GET",code="400"} 2`,
		`tc_http_request_duration_seconds_count{route="/api/v1/query"} 2`,
		`tc_http_requests_in_flight 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	var line map[string]any
	dec := json.NewDecoder(&logBuf)
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("access log not JSON: %v", err)
	}
	if line["requestId"] != "client-id-1" || line["route"] != "/api/v1/query" || line["status"] != float64(400) {
		t.Fatalf("access log line = %v", line)
	}
}

func TestStatusText(t *testing.T) {
	for code, want := range map[int]string{200: "200", 404: "404", 503: "503", 201: "201"} {
		if got := statusText(code); got != want {
			t.Errorf("statusText(%d) = %q, want %q", code, got, want)
		}
	}
}
