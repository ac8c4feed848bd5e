package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"themecomm/internal/itemset"
)

// This file is the typed request layer: every GET route that accepts the
// query-parameter surface (alpha, pattern, k, contains, stream, limit,
// cursor) parses it through parseQueryRequest into one queryRequest value,
// and every invalid parameter or unsupported combination is rejected here —
// in one place, with one wording — instead of ad hoc per handler. Routes
// declare which parameter groups they support via reqCaps; a parameter a
// route does not support is a 400, never silently ignored.

// reqCaps declares the query-parameter groups a route accepts. Alpha and
// pattern are universal; everything else is opt-in.
type reqCaps uint8

const (
	// capTopK accepts k (top-k ranking).
	capTopK reqCaps = 1 << iota
	// capContains accepts contains (containment semantics).
	capContains
	// capStream accepts stream and limit (NDJSON delivery and paging).
	capStream
	// capCursor accepts cursor (resume a paginated answer).
	capCursor
)

// queryRequest is the typed form of one query-shaped request, shared by the
// query, explain, queryall, vertex and stream routes.
type queryRequest struct {
	// Alpha is the cohesion threshold; 0 when absent.
	Alpha float64
	// Pattern is the resolved query pattern; nil means every item (the
	// query-by-alpha workload). Only resolved when a tenant is given —
	// queryall resolves per network through resolverFor instead.
	Pattern itemset.Itemset
	// RawPattern is the pattern parameter exactly as sent; cursors carry it
	// so a resume re-resolves what the client originally asked.
	RawPattern string
	// Fields is RawPattern split into trimmed non-empty fields, for
	// per-network resolution on queryall.
	Fields []string
	// K is the top-k bound; 0 when absent.
	K int
	// Contains switches to containment semantics (every indexed pattern ⊇ q).
	Contains bool
	// Stream asks for NDJSON delivery.
	Stream bool
	// Limit bounds one page; 0 means unlimited.
	Limit int
	// Cursor resumes a previous page; empty when absent.
	Cursor string
}

// paged reports whether the request diverts to the pull-based executor.
func (q *queryRequest) paged() bool { return q.Stream || q.Cursor != "" || q.Limit > 0 }

// reqError is a typed request rejection: the status and message the route
// answers with. Handlers surface it through its write method so the JSON
// error envelope stays uniform.
type reqError struct {
	status int
	msg    string
}

func badRequestf(format string, args ...any) *reqError {
	return &reqError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func (e *reqError) write(w http.ResponseWriter, r *http.Request) {
	writeError(w, r, e.status, e.msg)
}

// parseQueryRequest parses and validates the query-parameter surface of one
// request. t resolves pattern names and may be nil (queryall: patterns
// resolve per network). Parameters outside the route's caps and invalid
// combinations are rejected with a 400.
func parseQueryRequest(t *tenant, r *http.Request, caps reqCaps) (*queryRequest, *reqError) {
	qp := r.URL.Query()
	req := &queryRequest{}
	if v := qp.Get("alpha"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil || parsed < 0 || math.IsNaN(parsed) || math.IsInf(parsed, 0) {
			return nil, badRequestf("invalid alpha %q", v)
		}
		req.Alpha = parsed
	}
	req.RawPattern = qp.Get("pattern")
	req.Fields = patternFields(req.RawPattern)
	for _, f := range req.Fields {
		if _, _, err := itemset.ParseID(f); err != nil {
			return nil, badRequestf("%s", err.Error())
		}
	}
	if t != nil && req.RawPattern != "" {
		parsed, err := t.parsePattern(req.RawPattern)
		if err != nil {
			return nil, badRequestf("%s", err.Error())
		}
		req.Pattern = parsed
	}
	if v := qp.Get("k"); v != "" {
		if caps&capTopK == 0 {
			return nil, badRequestf("k is not supported on this route")
		}
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			return nil, badRequestf("invalid k %q", v)
		}
		req.K = parsed
	}
	if v := qp.Get("contains"); v != "" {
		if caps&capContains == 0 {
			return nil, badRequestf("contains is not supported on this route")
		}
		parsed, err := strconv.ParseBool(v)
		if err != nil {
			return nil, badRequestf("invalid contains %q", v)
		}
		req.Contains = parsed
	}
	if v := qp.Get("stream"); v != "" {
		if caps&capStream == 0 {
			return nil, badRequestf("streaming is not supported on this route")
		}
		switch v {
		case "1", "true":
			req.Stream = true
		case "0", "false":
		default:
			return nil, badRequestf("invalid stream %q (use 1 or true)", v)
		}
	}
	if v := qp.Get("limit"); v != "" {
		if caps&capStream == 0 {
			return nil, badRequestf("limit is not supported on this route")
		}
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			return nil, badRequestf("invalid limit %q", v)
		}
		req.Limit = parsed
	}
	if v := qp.Get("cursor"); v != "" {
		if caps&capCursor == 0 {
			return nil, badRequestf("cursor pagination is not supported on this route; use limit with fresh requests")
		}
		req.Cursor = v
	}
	if req.Contains {
		if req.K > 0 {
			return nil, badRequestf("contains cannot be combined with k (top-k ranks sub-pattern answers)")
		}
		if req.paged() {
			return nil, badRequestf("contains cannot be combined with stream, cursor or limit")
		}
	}
	return req, nil
}
