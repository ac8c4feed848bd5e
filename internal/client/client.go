// Package client is the typed Go client of the tcserver HTTP API: queries,
// streaming queries, updates, the replication journal feed and health, all
// over the same JSON types the server serializes (internal/server), so a CLI
// or a replica never re-declares the wire format. Every request carries a
// request ID (caller-supplied or minted per call) that the server echoes and
// stamps on its logs; every error is an *APIError holding the HTTP status,
// the server's message and that ID, so a failure can be found in the
// server's logs with one grep. Idempotent GETs retry transient failures
// (transport errors and 5xx answers) with exponential backoff; updates are
// never retried — an applied delta must not be applied twice.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"themecomm/internal/obs"
	"themecomm/internal/server"
)

// maxBodyBytes bounds one non-streaming response body.
const maxBodyBytes = 64 << 20

// APIError is a non-2xx answer from the server: the decoded JSON error
// envelope plus the HTTP status it arrived with.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error message.
	Message string
	// RequestID is the request ID the server assigned (or echoed); the
	// handle into its access and slow-query logs.
	RequestID string
	// Location, when non-empty, is where the request would succeed — set on
	// the 403 a read-only replica answers to writes, pointing at the
	// primary.
	Location string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("server error (HTTP %d, request id %s): %s", e.Status, e.RequestID, e.Message)
	}
	return fmt.Sprintf("server error (HTTP %d): %s", e.Status, e.Message)
}

// IsRetryable reports whether the failure is worth retrying on an
// idempotent request: server-side 5xx trouble, not a 4xx request defect.
func (e *APIError) IsRetryable() bool { return e.Status >= 500 }

// Options configures a Client.
type Options struct {
	// HTTPClient overrides the underlying HTTP client; nil uses a client
	// with a 60s timeout (streaming and journal-tail requests always run
	// without a timeout, on a separate client).
	HTTPClient *http.Client
	// RequestID, when non-empty, is sent as the correlation ID on every
	// request; empty mints a fresh ID per call.
	RequestID string
	// Retries is how many times an idempotent GET is retried after a
	// transport error or a 5xx answer; negative disables retries. Default 2.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt. Default
	// 250ms.
	Backoff time.Duration
}

// Client talks to one tcserver. It is safe for concurrent use.
type Client struct {
	base      string
	http      *http.Client
	streaming *http.Client
	requestID string
	retries   int
	backoff   time.Duration
}

// New builds a client for the server at base (e.g. "http://localhost:8080").
func New(base string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	// Streams and journal tails live as long as the server produces lines;
	// strip only the overall timeout, keep the caller's transport.
	sc := *hc
	sc.Timeout = 0
	retries := opts.Retries
	if retries == 0 {
		retries = 2
	} else if retries < 0 {
		retries = 0
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	return &Client{
		base:      strings.TrimRight(base, "/"),
		http:      hc,
		streaming: &sc,
		requestID: opts.RequestID,
		retries:   retries,
		backoff:   backoff,
	}
}

// Base returns the server's base URL.
func (c *Client) Base() string { return c.base }

// newRequest builds one request with the correlation ID attached.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	id := c.requestID
	if id == "" {
		id = obs.NewRequestID()
	}
	req.Header.Set(obs.HeaderRequestID, id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// apiError decodes the response into an *APIError, consuming the body.
func apiError(resp *http.Response) *APIError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	e := &APIError{
		Status:    resp.StatusCode,
		Message:   strings.TrimSpace(string(body)),
		RequestID: resp.Header.Get(obs.HeaderRequestID),
		Location:  resp.Header.Get("Location"),
	}
	var env struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != "" {
		e.Message = env.Error
		if e.RequestID == "" {
			e.RequestID = env.RequestID
		}
	}
	return e
}

// doGET runs one idempotent GET with retry-on-transient-failure, decoding a
// 200 into out. It returns the request ID the server echoed.
func (c *Client) doGET(ctx context.Context, path string, out any) (string, error) {
	resp, err := c.getWithRetry(ctx, c.http, path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	serverID := resp.Header.Get(obs.HeaderRequestID)
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return serverID, fmt.Errorf("reading response: %w", err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return serverID, fmt.Errorf("decoding response: %w", err)
	}
	return serverID, nil
}

// getWithRetry issues the GET, retrying transport errors and 5xx answers
// with exponential backoff. On success the caller owns the response body;
// every failed attempt's body is drained so connections are reused.
func (c *Client) getWithRetry(ctx context.Context, hc *http.Client, path string) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := c.newRequest(ctx, http.MethodGet, path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		switch {
		case err != nil:
			lastErr = fmt.Errorf("GET %s: %w", c.base+path, err)
		case resp.StatusCode == http.StatusOK:
			return resp, nil
		default:
			apiErr := apiError(resp)
			resp.Body.Close()
			if !apiErr.IsRetryable() {
				return nil, apiErr
			}
			lastErr = apiErr
		}
		if attempt >= c.retries || ctx.Err() != nil {
			return nil, lastErr
		}
		select {
		case <-ctx.Done():
			return nil, lastErr
		case <-time.After(c.backoff << attempt):
		}
	}
}

// Query is one theme-community query (or top-k, or sub-pattern containment,
// or a cursor resume).
type Query struct {
	// Network scopes the query to one federation tenant; empty uses the
	// server's default network.
	Network string
	// Pattern is the comma-separated query pattern (names or numeric item
	// identifiers); empty queries every item.
	Pattern string
	// Alpha is the cohesion threshold.
	Alpha float64
	// K, when positive, asks for the top-k communities by cohesion.
	K int
	// Contains switches to sub-pattern containment semantics.
	Contains bool
	// Cursor resumes a paginated answer; when set the query parameters
	// (pattern, alpha, k) travel inside it and are not sent.
	Cursor string
	// Limit bounds one streamed page and mints a next-page cursor.
	Limit int
}

// params renders the query string. Streaming is a transport choice, so the
// stream parameter is added by the caller.
func (q *Query) params() url.Values {
	p := url.Values{}
	if q.Cursor != "" {
		p.Set("cursor", q.Cursor)
	} else {
		p.Set("alpha", strconv.FormatFloat(q.Alpha, 'g', -1, 64))
		if q.Pattern != "" {
			p.Set("pattern", q.Pattern)
		}
		if q.K > 0 {
			p.Set("k", strconv.Itoa(q.K))
		}
		if q.Contains {
			p.Set("contains", "true")
		}
	}
	if q.Limit > 0 {
		p.Set("limit", strconv.Itoa(q.Limit))
	}
	return p
}

// route renders the path of one API route, scoped to the query's network.
func (q *Query) route(name string) string {
	if q.Network != "" {
		return "/api/v1/" + url.PathEscape(q.Network) + "/" + name
	}
	return "/api/v1/" + name
}

// Do answers the query in one response. The returned request ID correlates
// the call with the server's logs.
func (c *Client) Do(ctx context.Context, q Query) (*server.QueryResponse, string, error) {
	var out server.QueryResponse
	id, err := c.doGET(ctx, q.route("query")+"?"+q.params().Encode(), &out)
	if err != nil {
		return nil, id, err
	}
	return &out, id, nil
}

// Explain runs the query through the explain route: the per-node trace of
// how the TC-Tree answered it.
func (c *Client) Explain(ctx context.Context, q Query) (*server.ExplainResponse, string, error) {
	p := url.Values{}
	p.Set("alpha", strconv.FormatFloat(q.Alpha, 'g', -1, 64))
	if q.Pattern != "" {
		p.Set("pattern", q.Pattern)
	}
	if q.Contains {
		p.Set("contains", "true")
	}
	var out server.ExplainResponse
	id, err := c.doGET(ctx, q.route("explain")+"?"+p.Encode(), &out)
	if err != nil {
		return nil, id, err
	}
	return &out, id, nil
}

// Update applies one network delta. Never retried: the delta may have been
// applied even when the answer was lost.
func (c *Client) Update(ctx context.Context, network string, u *server.UpdateRequest) (*server.UpdateResponse, error) {
	body, err := json.Marshal(u)
	if err != nil {
		return nil, err
	}
	path := "/api/v1/update"
	if network != "" {
		path = "/api/v1/" + url.PathEscape(network) + "/update"
	}
	req, err := c.newRequest(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", c.base+path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var out server.UpdateResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding update response: %w", err)
	}
	return &out, nil
}
