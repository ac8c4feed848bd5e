package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"themecomm/internal/federation"
)

// TestInvalidParameterCombinations: the typed request layer rejects every
// unsupported parameter and combination with a 400 — the same wording on
// every route — instead of handlers silently ignoring what they do not
// implement.
func TestInvalidParameterCombinations(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		name string
		url  string
		want int
	}{
		// Invalid single parameters, shared by every route.
		{"negative alpha", "/api/v1/query?alpha=-1", http.StatusBadRequest},
		{"alpha NaN", "/api/v1/query?alpha=NaN", http.StatusBadRequest},
		{"alpha Inf", "/api/v1/query?alpha=%2BInf", http.StatusBadRequest},
		{"k zero", "/api/v1/query?k=0", http.StatusBadRequest},
		{"k text", "/api/v1/query?k=x", http.StatusBadRequest},
		{"contains text", "/api/v1/query?contains=x", http.StatusBadRequest},
		{"stream text", "/api/v1/query?stream=yes", http.StatusBadRequest},
		{"limit zero", "/api/v1/query?limit=0", http.StatusBadRequest},
		{"limit text", "/api/v1/query?limit=x", http.StatusBadRequest},

		// Combinations the query route rejects.
		{"contains with k", "/api/v1/query?contains=true&k=3", http.StatusBadRequest},
		{"contains with stream", "/api/v1/query?contains=true&stream=1", http.StatusBadRequest},
		{"contains with limit", "/api/v1/query?contains=true&limit=2", http.StatusBadRequest},
		{"contains with cursor", "/api/v1/query?contains=true&cursor=abc", http.StatusBadRequest},

		// Parameters outside a route's capability set.
		{"explain k", "/api/v1/explain?alpha=0&k=3", http.StatusBadRequest},
		{"explain stream", "/api/v1/explain?alpha=0&stream=1", http.StatusBadRequest},
		{"explain limit", "/api/v1/explain?alpha=0&limit=2", http.StatusBadRequest},
		{"explain cursor", "/api/v1/explain?alpha=0&cursor=abc", http.StatusBadRequest},
		{"queryall contains", "/api/v1/queryall?alpha=0&contains=true", http.StatusBadRequest},
		{"vertex k", "/api/v1/vertex?id=0&k=3", http.StatusBadRequest},
		{"vertex stream", "/api/v1/vertex?id=0&stream=1", http.StatusBadRequest},

		// Valid boundary combinations stay accepted.
		{"contains alone", "/api/v1/query?contains=true&alpha=0", http.StatusOK},
		{"stream false with contains", "/api/v1/query?contains=true&stream=0", http.StatusOK},
		{"explain contains", "/api/v1/explain?contains=true&alpha=0", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, s, tc.url)
			if rec.Code != tc.want {
				t.Fatalf("%s: status %d, want %d (body %s)", tc.url, rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

// TestQueryAllParameterCombinations runs the capability checks that need a
// federation behind /api/v1/queryall.
func TestQueryAllParameterCombinations(t *testing.T) {
	s, _, _ := newFederatedServer(t, federation.Options{CacheSize: 16})
	cases := []struct {
		url  string
		want int
	}{
		{"/api/v1/queryall?alpha=0&contains=true", http.StatusBadRequest},
		{"/api/v1/queryall?alpha=0&cursor=abc", http.StatusBadRequest},
		{"/api/v1/queryall?alpha=0&stream=yes", http.StatusBadRequest},
		{"/api/v1/queryall?alpha=0&k=0", http.StatusBadRequest},
		{"/api/v1/queryall?alpha=0&pattern=4294967301", http.StatusBadRequest},
		{"/api/v1/queryall?alpha=0&k=3&pattern=-1", http.StatusBadRequest},
		{"/api/v1/queryall?alpha=0", http.StatusOK},
		{"/api/v1/queryall?alpha=0&k=3&stream=1&limit=2", http.StatusOK},
	}
	for _, tc := range cases {
		rec := get(t, s, tc.url)
		if rec.Code != tc.want {
			t.Fatalf("%s: status %d, want %d (body %s)", tc.url, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestErrorEnvelope: every error answer carries the JSON envelope — error,
// status echoed in the body, and the request ID when the observability layer
// runs. The route list sweeps one failure per handler family.
func TestErrorEnvelope(t *testing.T) {
	s, _ := newObservedServer(t)
	urls := []string{
		"/no/such/route",
		"/api/v1/query?alpha=-1",
		"/api/v1/query?cursor=%21%21",
		"/api/v1/explain?k=1",
		"/api/v1/patterns?length=0",
		"/api/v1/vertex?id=-1",
		"/api/v1/queryall?alpha=-1",    // bad cross-network query
		"/api/v1/journal",              // not a primary
		"/api/v1/nosuch/query?alpha=0", // unknown network
		"/api/v1/batch",                // POST-only route hit with GET
	}
	for _, url := range urls {
		rec := get(t, s, url)
		if rec.Code < 400 {
			t.Fatalf("%s: status %d, want an error", url, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s: Content-Type %q, want application/json", url, ct)
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: error body is not the JSON envelope: %v (body %s)", url, err, rec.Body.String())
		}
		if e.Error == "" {
			t.Fatalf("%s: envelope has no error message: %s", url, rec.Body.String())
		}
		if e.Status != rec.Code {
			t.Fatalf("%s: envelope status %d != HTTP status %d", url, e.Status, rec.Code)
		}
		if e.RequestID == "" {
			t.Fatalf("%s: envelope has no requestId despite observability being enabled: %s", url, rec.Body.String())
		}
	}

	// A query, explain or pattern listing whose client hung up stops at the
	// next shard and is answered through the same envelope as a 499: not the
	// server's failure, no 5xx.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, url := range []string{"/api/v1/query?alpha=0.31", "/api/v1/query?alpha=0.31&k=3", "/api/v1/query?alpha=0.31&limit=2",
		"/api/v1/explain?alpha=0.31", "/api/v1/patterns?length=2"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != statusClientClosedRequest || e.Status != rec.Code {
			t.Fatalf("%s with a cancelled context: status %d, envelope %+v (%v), want 499", url, rec.Code, e, err)
		}
	}

	// Method errors also carry the envelope (POST-only route hit with GET).
	rec := post(t, s, "/api/v1/query?alpha=0", "")
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Status != http.StatusMethodNotAllowed {
		t.Fatalf("method error envelope: %v (body %s)", err, rec.Body.String())
	}

	// Without an observer the envelope simply omits the request ID.
	plain, _ := newTestServer(t)
	rec = get(t, plain, "/api/v1/query?alpha=-1")
	e = errorResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("plain envelope: %v", err)
	}
	if e.RequestID != "" {
		t.Fatalf("plain server minted a requestId: %s", rec.Body.String())
	}
	if e.Status != http.StatusBadRequest {
		t.Fatalf("plain envelope status = %d", e.Status)
	}
}
