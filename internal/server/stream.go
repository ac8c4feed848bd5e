package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/itemset"
	"themecomm/internal/obs"
	"themecomm/internal/truss"
)

// This file is the HTTP surface of the streaming executor: chunked NDJSON
// responses (?stream=1) that deliver communities as the engine's pull-based
// cursor yields them, and cursor pagination (?limit=N, ?cursor=...) that
// resumes a query answer across requests.
//
// NDJSON framing: one JSON object per line — a StreamHeader line, then one
// StreamCommunity line per community, then a StreamTrailer line with the
// execution counters and, when a limit cut the answer short, the cursor of
// the next page. A mid-stream failure replaces the trailer with a
// StreamError line (the HTTP status is already committed by then, so the
// error travels in-band).
//
// Cursors are opaque base64url-encoded JSON carrying the query (network,
// pattern, alpha, k), the index epoch it executed against, and the resume
// position. A cursor is only valid against the epoch it was minted at:
// after an update or shard reload the remaining pages could mix pre-
// and post-delta shards, so a stale cursor is rejected with 410 Gone and
// the client re-issues the query from the start.

// cursorVersion is the version stamped into minted cursors; decodeCursor
// rejects every other version.
const cursorVersion = 1

// maxCursorLen bounds the accepted cursor parameter, keeping hostile inputs
// from forcing large base64/JSON work.
const maxCursorLen = 4096

// cursor is the decoded pagination state. The pattern is kept in its raw
// request form (comma-separated names or ids) and re-resolved on resume, so
// a cursor round-trips exactly what the client originally asked.
type cursor struct {
	V       int     `json:"v"`
	Network string  `json:"net,omitempty"`
	Pattern string  `json:"pattern,omitempty"`
	Alpha   float64 `json:"alpha"`
	K       int     `json:"k,omitempty"`
	Epoch   uint64  `json:"epoch"`
	Pos     int     `json:"pos"`
}

// encodeCursor renders a cursor as an opaque URL-safe token.
func encodeCursor(c cursor) string {
	b, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeCursor parses and validates a cursor token. Malformed, truncated,
// oversized or out-of-range inputs error; they never panic (FuzzCursorDecode
// holds it to that).
func decodeCursor(raw string) (cursor, error) {
	var c cursor
	if raw == "" {
		return c, errors.New("empty cursor")
	}
	if len(raw) > maxCursorLen {
		return c, fmt.Errorf("cursor exceeds %d bytes", maxCursorLen)
	}
	b, err := base64.RawURLEncoding.DecodeString(raw)
	if err != nil {
		return c, fmt.Errorf("cursor is not base64url: %v", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return cursor{}, fmt.Errorf("cursor is not valid JSON: %v", err)
	}
	if c.V != cursorVersion {
		return cursor{}, fmt.Errorf("unsupported cursor version %d", c.V)
	}
	if c.Pos < 0 {
		return cursor{}, fmt.Errorf("negative cursor position %d", c.Pos)
	}
	if c.K < 0 {
		return cursor{}, fmt.Errorf("negative cursor k %d", c.K)
	}
	if c.Alpha < 0 {
		return cursor{}, fmt.Errorf("negative cursor alpha %g", c.Alpha)
	}
	return c, nil
}

// StreamHeader is the first line of an NDJSON streaming response.
type StreamHeader struct {
	Type    string   `json:"type"` // "header"
	Network string   `json:"network,omitempty"`
	Alpha   float64  `json:"alpha"`
	Pattern []string `json:"pattern,omitempty"`
	TopK    int      `json:"topK,omitempty"`
	// Epoch is the index epoch the stream executes against; cursors minted
	// by this stream carry it. Omitted on queryall streams, whose members
	// each have their own epoch.
	Epoch uint64 `json:"epoch,omitempty"`
}

// StreamCommunity is one community line of an NDJSON streaming response.
// Network is set on queryall streams.
type StreamCommunity struct {
	Type    string `json:"type"` // "community"
	Network string `json:"network,omitempty"`
	CommunityResponse
}

// StreamTrailer is the last line of a successful NDJSON streaming response.
type StreamTrailer struct {
	Type    string `json:"type"` // "trailer"
	Emitted int    `json:"emitted"`
	// RetrievedNodes and VisitedNodes mirror QueryResponse; zero on queryall
	// streams (the counters are per member engine).
	RetrievedNodes int `json:"retrievedNodes,omitempty"`
	VisitedNodes   int `json:"visitedNodes,omitempty"`
	// ShardsShortCircuited counts scheduled shards top-k early termination
	// never opened (per-network streams only).
	ShardsShortCircuited int   `json:"shardsShortCircuited,omitempty"`
	QueryMicros          int64 `json:"queryMicros"`
	// NextCursor resumes the answer where this page stopped; present only
	// when a limit cut the stream short of its end.
	NextCursor string `json:"nextCursor,omitempty"`
}

// StreamError is the terminal line of a failed NDJSON streaming response;
// Status is the HTTP status the failure would have carried had it happened
// before the response was committed (410 for a mid-stream index swap). It
// mirrors the JSON error envelope of the non-streaming routes, request ID
// included.
type StreamError struct {
	Type      string `json:"type"` // "error"
	Status    int    `json:"status"`
	Error     string `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

// streamError builds the in-band error line for one request.
func streamError(r *http.Request, err error) StreamError {
	return StreamError{Type: "error", Status: queryStatusOf(err), Error: err.Error(),
		RequestID: obs.RequestIDFrom(r.Context())}
}

// errorLine writes the in-band error line of a stream that failed.
func (a *answerWriter) errorLine(r *http.Request, err error) {
	b, _ := json.Marshal(streamError(r, err))
	a.buf = append(a.buf, b...)
	a.line()
}

// lineSince ends the NDJSON line of t's answer that began encoding at began,
// and adds the line's encode to t's.
func (t *tenant) lineSince(a *answerWriter, began time.Time) {
	a.line()
	t.encode += time.Since(began)
}

// serveQueryStream handles GET .../query when streaming or pagination
// parameters are present: ?stream=1 switches the response to NDJSON,
// ?limit=N bounds the page, and ?cursor=... resumes a previous page's
// position (the cursor carries the query; conflicting pattern/alpha/k
// parameters are ignored). The answer is delivered through the engine's
// pull-based stream, so only the shards the page needs are opened, and a
// top-k stream short-circuits the shards its α* bounds rule out.
func (s *Server) serveQueryStream(t *tenant, w http.ResponseWriter, r *http.Request, req *queryRequest) {
	ndjson, limit := req.Stream, req.Limit

	var alpha float64
	var q itemset.Itemset
	var k, pos int
	var rawPattern string
	var c cursor
	if req.Cursor != "" {
		var err error
		if c, err = decodeCursor(req.Cursor); err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid cursor: %v", err))
			return
		}
		if c.Network != t.name {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("cursor was minted for network %q", c.Network))
			return
		}
		alpha, k, pos, rawPattern = c.Alpha, c.K, c.Pos, c.Pattern
		if rawPattern != "" {
			parsed, err := t.parsePattern(rawPattern)
			if err != nil {
				writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid cursor pattern: %v", err))
				return
			}
			q = parsed
		}
	} else {
		alpha, q, k, rawPattern = req.Alpha, req.Pattern, req.K, req.RawPattern
	}

	start := time.Now()
	var st *engine.Stream
	var err error
	if k > 0 {
		st, err = t.engine.StreamTopK(r.Context(), q, alpha, k)
	} else {
		st, err = t.engine.StreamQuery(r.Context(), q, alpha)
	}
	if err != nil {
		writeError(w, r, queryStatusOf(err), err.Error())
		return
	}
	defer st.Close()
	if epoch := st.Stats().Epoch; req.Cursor != "" && epoch != c.Epoch {
		// The stream's captured epoch is the one its pages are read at, so it
		// is the one the cursor must match; the response is not committed
		// yet, so even an NDJSON resume answers the 410 as a status.
		writeError(w, r, http.StatusGone, fmt.Sprintf("cursor epoch %d expired: the index moved to epoch %d; re-issue the query", c.Epoch, epoch))
		return
	}

	// Skip the communities previous pages already delivered. On a lazy
	// engine the early shards are typically still resident, so a resume
	// costs traversal, not disk.
	for skipped := 0; skipped < pos; skipped++ {
		rc, err := st.Next()
		if err != nil {
			writeError(w, r, queryStatusOf(err), err.Error())
			return
		}
		if rc == nil {
			break // the page starts beyond the end: empty page, no next cursor
		}
	}

	nextCursor := func(emitted int) string {
		return encodeCursor(cursor{
			V: cursorVersion, Network: t.name, Pattern: rawPattern,
			Alpha: alpha, K: k, Epoch: st.Stats().Epoch, Pos: pos + emitted,
		})
	}

	if ndjson {
		header := StreamHeader{Type: "header", Network: t.name, Alpha: alpha, TopK: k, Epoch: st.Stats().Epoch}
		if q != nil {
			header.Pattern = t.itemNames(q)
		}
		s.writeStreamNDJSON(t, w, r, st, &header, k > 0, limit, start, nextCursor)
		return
	}

	// Plain JSON page: the materializing response shape plus nextCursor. The
	// counters come first on the wire and are final only once the stream is
	// closed, so the page is gathered before it is encoded.
	var page []truss.Community
	for limit <= 0 || len(page) < limit {
		rc, err := st.Next()
		if err != nil {
			writeError(w, r, queryStatusOf(err), err.Error())
			return
		}
		if rc == nil {
			break
		}
		page = append(page, *rc)
	}
	more, err := streamHasMore(st, limit, len(page))
	if err != nil {
		writeError(w, r, queryStatusOf(err), err.Error())
		return
	}
	var next string
	if more {
		next = nextCursor(len(page))
	}
	st.Close()
	stats := st.Stats()
	s.writeAnswer(t, w, &answerHead{alpha: alpha, pattern: q, topK: k, retrieved: stats.RetrievedNodes,
		visited: stats.VisitedNodes, micros: time.Since(start).Microseconds()}, page, k > 0, next)
}

// streamHasMore peeks one community past the page to decide whether a next
// cursor is due. The peeked community is discarded — the next page
// recomputes it — which costs one community, not one shard.
func streamHasMore(st *engine.Stream, limit, emitted int) (bool, error) {
	if limit <= 0 || emitted < limit {
		return false, nil
	}
	rc, err := st.Next()
	if err != nil {
		return false, err
	}
	return rc != nil, nil
}

// writeStreamNDJSON drives one network's stream to an NDJSON response:
// header, one line per community (flushed as produced, so clients see
// results while later shards are still unopened), then the trailer with the
// final counters — the stream is closed first, so ShardsShortCircuited is
// the final tally.
func (s *Server) writeStreamNDJSON(t *tenant, w http.ResponseWriter, r *http.Request, st *engine.Stream, header *StreamHeader, ranked bool, limit int, start time.Time, nextCursor func(int) string) {
	a := beginAnswer(w, "application/x-ndjson")
	defer a.release()
	defer s.observeEncode(t)
	a.buf = appendStreamHeader(a.buf, header)
	t.lineSince(a, a.began)
	emitted, err := t.streamLines(a, st, "", ranked, 0, limit)
	if err != nil {
		a.errorLine(r, err)
		return
	}
	more, err := streamHasMore(st, limit, emitted)
	if err != nil {
		a.errorLine(r, err)
		return
	}
	trailer := StreamTrailer{Type: "trailer", Emitted: emitted}
	if more {
		trailer.NextCursor = nextCursor(emitted)
	}
	st.Close()
	stats := st.Stats()
	trailer.RetrievedNodes = stats.RetrievedNodes
	trailer.VisitedNodes = stats.VisitedNodes
	trailer.ShardsShortCircuited = stats.ShardsShortCircuited
	trailer.QueryMicros = time.Since(start).Microseconds()
	began := time.Now()
	a.buf = appendStreamTrailer(a.buf, &trailer)
	t.lineSince(a, began)
}

// streamLines writes st's communities as NDJSON lines of t's answer, tagged
// with network unless it is empty, until the stream ends or emitted reaches
// limit (limit <= 0: no limit). It returns the lines emitted so far and the
// error of a failed pull, which the caller ends the answer with.
func (t *tenant) streamLines(a *answerWriter, st *engine.Stream, network string, ranked bool, emitted, limit int) (int, error) {
	for limit <= 0 || emitted < limit {
		rc, err := st.Next()
		if err != nil || rc == nil {
			return emitted, err
		}
		t.communityLine(a, network, rc, ranked)
		emitted++
	}
	return emitted, nil
}

// communityLine writes rc as one NDJSON line of t's answer, tagged with
// network unless it is empty.
func (t *tenant) communityLine(a *answerWriter, network string, rc *truss.Community, ranked bool) {
	began := time.Now()
	a.buf = appendCommunityLine(a.buf, network, rc, ranked, t.names)
	t.lineSince(a, began)
}

// serveQueryAllStream handles GET /api/v1/queryall?stream=1: the federated
// answer as one NDJSON stream, one header and one trailer, with limit
// counting across networks. With k the lines are TopKAll's cross-network
// merge ranked to min(k, limit) — the first L lines of a total order are its
// top L — and computed before the response is committed, so a member failure
// answers an error status. Without k the networks are walked in name order,
// QueryAll's order, each through its own engine stream and the line loop of
// /query?stream=1, so at most one shard answer is buffered at a time. Cursors
// are not supported on queryall (members move epochs independently); pages
// come from re-issuing with a narrower limit.
func (s *Server) serveQueryAllStream(w http.ResponseWriter, r *http.Request, resolve federation.PatternResolver, fields []string, alpha float64, k, limit int) {
	start := time.Now()
	var merged []federation.NetworkRanked
	if k > 0 {
		rank := k
		if limit > 0 {
			rank = min(k, limit)
		}
		var err error
		if merged, err = s.fed.TopKAll(r.Context(), resolve, alpha, rank); err != nil {
			writeError(w, r, queryStatusOf(err), err.Error())
			return
		}
	}

	tenants := s.newTenantMemo()
	defer tenants.observeEncode()
	a := beginAnswer(w, "application/x-ndjson")
	defer a.release()
	a.buf = appendStreamHeader(a.buf, &StreamHeader{Type: "header", Alpha: alpha, Pattern: fields, TopK: k})
	a.line()
	emitted := 0
	if k > 0 {
		for i := range merged {
			nr := &merged[i]
			if t := tenants.get(nr.Network); t != nil { // nil: detached since
				t.communityLine(a, nr.Network, &nr.Community, true)
				emitted++
			}
		}
	} else {
		for _, name := range s.fed.Names() {
			if limit > 0 && emitted >= limit {
				break
			}
			n, ok := s.fed.Network(name)
			t := tenants.get(name)
			if !ok || t == nil {
				continue // detached since the listing
			}
			st, err := n.Engine().StreamQuery(r.Context(), resolve(n), alpha)
			if err == nil {
				emitted, err = t.streamLines(a, st, name, false, emitted, limit)
				st.Close()
			}
			if err != nil {
				a.errorLine(r, fmt.Errorf("network %q: %w", name, err))
				return
			}
		}
	}
	a.buf = appendStreamTrailer(a.buf, &StreamTrailer{Type: "trailer", Emitted: emitted, QueryMicros: time.Since(start).Microseconds()})
	a.line()
}
