// Package server exposes TC-Tree indexes over HTTP, turning them into a
// query-answering service: the "data warehouse of maximal pattern trusses"
// the paper advocates in Section 6, reachable by any client that can issue
// GET requests. Query execution and index metadata are delegated to
// internal/engine, so the server runs equally over an eager engine (whole
// tree resident) and a lazy one (shards loaded from a sharded index
// directory on first touch); lazy shard-load failures surface as 500s.
//
// Every served network is a named member of a federation
// (internal/federation), even when there is only one: the bare routes
// (/api/v1/query, …) answer against the default network, /api/v1/networks
// lists the members, /api/v1/{network}/... scopes every route to one member,
// and /api/v1/queryall fans one query out across every network, merging
// top-k answers by cohesion. Only the standard library is used.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/obs"
	"themecomm/internal/replication"
	"themecomm/internal/tctree"
)

// defaultCacheSize is the result-cache bound of the federation the server
// builds when the caller does not supply one.
const defaultCacheSize = 256

// treeNetwork is the name an index handed to New is served under.
const treeNetwork = "default"

// maxBatchQueries bounds one /api/v1/batch request.
const maxBatchQueries = 1024

// tenant is one served network as the handlers see it: an engine plus the
// presentation metadata that renders its answers, resolved per request from
// a federation member by tenantOf.
type tenant struct {
	// name is the federation network name.
	name   string
	engine *engine.Engine
	// dict optionally names the items of the indexed network.
	dict *itemset.Dictionary
	// names renders the network's items and vertices (display names such as
	// author names, where the network has them) into answers.
	names *federation.QuotedNames
	// encode is the time this request has spent encoding the tenant's
	// answer; observeEncode reports it.
	encode time.Duration
	// writable says the tenant is a member of the server's primary, which
	// applies its updates; POST .../update is rejected otherwise.
	writable bool
}

// Server answers theme-community queries from the networks of a federation.
// It is safe for concurrent use: resident index data is read-only.
type Server struct {
	// bareNetwork names the network behind the bare routes; empty means the
	// lexically first attached network, resolved per request.
	bareNetwork string
	fed         *federation.Federation
	mux         *http.ServeMux
	// obsv is the observability layer (nil disables it); metrics is its HTTP
	// middleware; start anchors the /healthz uptime.
	obsv    *obs.Observer
	metrics *obs.HTTPMetrics
	start   time.Time
	// primary, when non-nil, journals updates to its member networks and
	// serves the replication feed on GET /api/v1/journal. replStatus reports
	// the replication role into /healthz, federationstats and the metrics
	// collectors. readOnly rejects every update with a 403 pointing at
	// primaryURL (replica mode).
	primary    *replication.Primary
	replStatus func() replication.Status
	readOnly   bool
	primaryURL string
}

// Options configures a Server.
type Options struct {
	// Federation holds the served networks. Attach a network with its
	// dictionary, vertex names and database network (which makes it a
	// member of Primary) through the federation's Attach methods. When nil,
	// New builds one with a small shared result cache.
	Federation *federation.Federation
	// DefaultNetwork names the network behind the bare routes; empty means
	// the network of the index handed to New, else the lexically first
	// attached network.
	DefaultNetwork string
	// Primary, when non-nil, is the replication primary fronting the served
	// federation networks (replication.OpenPrimary): its members are the
	// networks that accept updates — journal append, in-memory apply, a
	// checkpoint later — and GET /api/v1/journal serves the replication feed
	// replicas tail. Without it every update answers 409. The caller owns
	// the primary's lifecycle: Recover before serving, Close after it.
	Primary *replication.Primary
	// ReadOnly marks the server a read-only replica: every update request is
	// answered 403, with a Location header pointing at the primary when
	// PrimaryURL is set.
	ReadOnly bool
	// PrimaryURL is the primary's base URL, advertised to rejected writers.
	PrimaryURL string
	// ReplicationStatus, when non-nil, feeds the replication role state into
	// /healthz, /api/v1/federationstats and the tc_journal_*/tc_replica_*
	// metrics; use Primary.Status or Replica.Status. Defaults to
	// Primary.Status when Primary is set.
	ReplicationStatus func() replication.Status
	// Obs enables the observability layer: request-ID propagation, HTTP
	// metrics and access logging on every route, GET /metrics over the
	// observer's registry (plus engine/cache/federation collectors), and
	// GET /api/v1/slowlog over its slow-query ring. Build the engine (or
	// federation) with the same observer as its Recorder so query latency
	// histograms land in the same registry. Nil disables all of it.
	Obs *obs.Observer
}

// New returns a Server over opts.Federation. A non-nil index (built
// in-process, tctree.BuildIndex) is attached to it, eager and without names,
// as the network "default" — into a new federation when opts.Federation is
// nil — and serves the bare routes unless opts.DefaultNetwork names another.
// New fails without an index or federation.
func New(idx *tctree.Index, opts Options) (*Server, error) {
	fed, bareNetwork := opts.Federation, opts.DefaultNetwork
	if idx != nil {
		if fed == nil {
			fed = federation.New(federation.Options{CacheSize: defaultCacheSize})
		}
		if err := fed.AttachBuilt(treeNetwork, idx, federation.NetworkOptions{}); err != nil {
			return nil, err
		}
		if bareNetwork == "" {
			bareNetwork = treeNetwork
		}
	}
	if fed == nil {
		return nil, fmt.Errorf("server: nil index and no federation")
	}
	s := &Server{bareNetwork: bareNetwork, fed: fed, mux: http.NewServeMux(),
		obsv: opts.Obs, start: time.Now(),
		primary: opts.Primary, replStatus: opts.ReplicationStatus,
		readOnly: opts.ReadOnly, primaryURL: strings.TrimRight(opts.PrimaryURL, "/")}
	if s.replStatus == nil && s.primary != nil {
		s.replStatus = s.primary.Status
	}
	if s.obsv != nil {
		s.metrics = obs.NewHTTPMetrics(s.obsv.Registry(), s.obsv.Logger())
		s.registerCollectors()
		s.registerReplicationCollectors()
	}
	// Unmatched paths answer a JSON 404 instead of the mux's plain-text
	// default, so every error the API returns is machine-readable. Routes are
	// registered through handle, which layers the HTTP observability
	// middleware over every handler when an observer is configured.
	s.handle("/", s.handleNotFound)
	s.handle("/healthz", s.handleHealth)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/api/v1/slowlog", s.handleSlowLog)
	s.handle("/api/v1/stats", s.forDefault(s.serveStats))
	s.handle("/api/v1/query", s.forDefault(s.serveQuery))
	s.handle("/api/v1/explain", s.forDefault(s.serveExplain))
	s.handle("/api/v1/batch", s.forDefault(s.serveBatch))
	s.handle("/api/v1/enginestats", s.forDefault(s.serveEngineStats))
	s.handle("/api/v1/patterns", s.forDefault(s.servePatterns))
	s.handle("/api/v1/vertex", s.forDefault(s.serveVertex))
	s.handle("/api/v1/update", s.forDefault(s.serveUpdate))
	s.handle("/api/v1/journal", s.handleJournal)
	s.registerFederationRoutes()
	return s, nil
}

// handleNotFound is the catch-all for paths no route matches.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, r, http.StatusNotFound, fmt.Sprintf("no such route %s", r.URL.Path))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// defaultTenant resolves the network behind the bare routes: the configured
// default network, or the lexically first attached one. Resolution is per
// request, so networks attached after start become servable. On failure the
// second return value says why — an empty federation and a default name that
// does not resolve are different operator errors.
func (s *Server) defaultTenant() (*tenant, string) {
	name := s.bareNetwork
	if name == "" {
		names := s.fed.Names()
		if len(names) == 0 {
			return nil, "no default network: the federation has no attached networks"
		}
		name = names[0]
	}
	n, ok := s.fed.Network(name)
	if !ok {
		return nil, fmt.Sprintf("no default network: %q is not attached", name)
	}
	return s.tenantOf(n), ""
}

// tenantOf adapts a federation network to the handler-facing tenant.
func (s *Server) tenantOf(n *federation.Network) *tenant {
	return &tenant{name: n.Name(), engine: n.Engine(), dict: n.Dictionary(), names: n.QuotedNames(),
		writable: s.primary != nil && s.primary.Member(n.Name())}
}

// forDefault adapts a tenant-scoped handler to the bare routes.
func (s *Server) forDefault(h func(*tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, why := s.defaultTenant()
		if t == nil {
			writeError(w, r, http.StatusNotFound, why)
			return
		}
		h(t, w, r)
	}
}

// StatsResponse is the payload of GET /api/v1/stats.
type StatsResponse struct {
	Nodes    int     `json:"nodes"`
	Depth    int     `json:"depth"`
	MaxAlpha float64 `json:"maxAlpha"`
}

// QueryResponse is the payload of GET /api/v1/query and of each batch answer.
type QueryResponse struct {
	Alpha   float64  `json:"alpha"`
	Pattern []string `json:"pattern,omitempty"`
	// Contains marks a containment answer (?contains=true): the communities
	// are those of every indexed pattern that is a superset of the query.
	Contains       bool                `json:"contains,omitempty"`
	TopK           int                 `json:"topK,omitempty"`
	RetrievedNodes int                 `json:"retrievedNodes"`
	VisitedNodes   int                 `json:"visitedNodes"`
	QueryMicros    int64               `json:"queryMicros"`
	Communities    []CommunityResponse `json:"communities"`
	// NextCursor resumes a paginated answer (?limit=N) where this page
	// stopped; present only when more communities remain.
	NextCursor string `json:"nextCursor,omitempty"`
}

// CommunityResponse describes one theme community in a query answer.
// Cohesion is only set on top-k answers: the largest cohesion threshold at
// which the community survives intact.
type CommunityResponse struct {
	Theme    []string `json:"theme"`
	Vertices []string `json:"vertices"`
	Edges    int      `json:"edges"`
	Cohesion float64  `json:"cohesion,omitempty"`
}

// PatternsResponse is the payload of GET /api/v1/patterns.
type PatternsResponse struct {
	Length   int        `json:"length"`
	Count    int        `json:"count"`
	Patterns [][]string `json:"patterns"`
}

// errorResponse is the JSON error envelope every route answers failures
// with: the message, the HTTP status repeated in the body (so a client that
// only kept the body can still branch on it), and the request ID when the
// observability layer is enabled — quote it when reporting a failure and the
// operator can find the request in the access log and slow-query ring.
type errorResponse struct {
	Error     string `json:"error"`
	Status    int    `json:"status"`
	RequestID string `json:"requestId,omitempty"`
}

func (s *Server) serveStats(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Nodes:    t.engine.NumNodes(),
		Depth:    t.engine.Depth(),
		MaxAlpha: t.engine.MaxAlpha(),
	})
}

func (s *Server) serveQuery(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	req, rerr := parseQueryRequest(t, r, capTopK|capContains|capStream|capCursor)
	if rerr != nil {
		rerr.write(w, r)
		return
	}
	// Streaming and pagination parameters divert to the pull-based executor;
	// without them the materializing path below answers byte-for-byte as
	// before. Streams execute sub-pattern semantics only.
	if req.paged() {
		s.serveQueryStream(t, w, r, req)
		return
	}
	alpha, q, k := req.Alpha, req.Pattern, req.K
	if k > 0 {
		qr, ranked, err := t.engine.TopKWithResultContext(r.Context(), q, alpha, k)
		if err != nil {
			writeError(w, r, queryStatusOf(err), err.Error())
			return
		}
		s.writeAnswer(t, w, &answerHead{alpha: alpha, pattern: q, topK: k, retrieved: qr.RetrievedNodes,
			visited: qr.VisitedNodes, micros: qr.Duration.Microseconds()}, ranked, true, "")
		return
	}

	var qr *engine.Answer
	var err error
	if req.Contains {
		qr, err = t.engine.QueryContainingContext(r.Context(), q, alpha)
	} else {
		qr, err = t.engine.QueryContext(r.Context(), q, alpha)
	}
	if err != nil {
		writeError(w, r, queryStatusOf(err), err.Error())
		return
	}
	s.writeAnswer(t, w, answerHeadOf(q, alpha, qr, req.Contains), qr.Communities, false, "")
}

// answerHeadOf is the envelope of an unranked engine answer.
func answerHeadOf(q itemset.Itemset, alpha float64, qr *engine.Answer, contains bool) *answerHead {
	return &answerHead{alpha: alpha, pattern: q, contains: contains, retrieved: qr.RetrievedNodes,
		visited: qr.VisitedNodes, micros: qr.Duration.Microseconds()}
}

// ExplainResponse is the payload of GET /api/v1/explain: the engine's plan
// and execution report, with the canonical query pattern rendered through
// the dictionary. Task items stay numeric (they are shard identifiers).
type ExplainResponse struct {
	// Network is the serving network.
	Network string   `json:"network,omitempty"`
	Pattern []string `json:"pattern,omitempty"`
	*engine.ExplainReport
}

func (s *Server) serveExplain(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	req, rerr := parseQueryRequest(t, r, capContains)
	if rerr != nil {
		rerr.write(w, r)
		return
	}
	mode := engine.ModeSub
	if req.Contains {
		mode = engine.ModeContaining
	}
	report, err := t.engine.ExplainContext(r.Context(), req.Pattern, req.Alpha, mode)
	if err != nil {
		writeError(w, r, queryStatusOf(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{Network: t.name, Pattern: t.itemNames(report.Pattern), ExplainReport: report})
}

// BatchQuery is one query of a POST /api/v1/batch request. An empty pattern
// means "every item" (query by alpha).
type BatchQuery struct {
	Pattern []string `json:"pattern,omitempty"`
	Alpha   float64  `json:"alpha"`
}

// BatchRequest is the payload of POST /api/v1/batch.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchResponse is the answer to POST /api/v1/batch, one entry per query in
// request order.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

func (s *Server) serveBatch(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid batch request: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, r, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatchQueries))
		return
	}
	reqs := make([]engine.Request, len(req.Queries))
	for i, bq := range req.Queries {
		if bq.Alpha < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("query %d: negative alpha", i))
			return
		}
		if len(bq.Pattern) > 0 {
			q, err := t.parsePatternList(bq.Pattern)
			if err != nil {
				writeError(w, r, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
				return
			}
			reqs[i] = engine.Request{Pattern: q, Alpha: bq.Alpha}
		} else {
			reqs[i] = engine.Request{Alpha: bq.Alpha}
		}
	}
	answers, err := t.engine.QueryBatchContext(r.Context(), reqs)
	if err != nil {
		writeError(w, r, queryStatusOf(err), err.Error())
		return
	}
	s.writeBatchAnswer(t, w, reqs, answers)
}

// writeBatchAnswer writes the BatchResponse of t's answers to reqs.
func (s *Server) writeBatchAnswer(t *tenant, w http.ResponseWriter, reqs []engine.Request, answers []*engine.Answer) {
	a := beginAnswer(w, "application/json")
	a.buf = append(a.buf, `{"results":[`...)
	for i, qr := range answers {
		if i > 0 {
			a.buf = append(a.buf, ',')
		}
		a.query(answerHeadOf(reqs[i].Pattern, reqs[i].Alpha, qr, false), qr.Communities, false, t.names, "")
	}
	a.buf = append(a.buf, "]}"...)
	s.endAnswer(t, a)
}

func (s *Server) serveEngineStats(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, t.engine.Stats())
}

func (s *Server) servePatterns(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	length := 1
	if v := r.URL.Query().Get("length"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid length %q", v))
			return
		}
		length = parsed
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid limit %q", v))
			return
		}
		limit = parsed
	}
	patterns, err := t.engine.PatternsAtDepth(r.Context(), length)
	if err != nil {
		writeError(w, r, queryStatusOf(err), err.Error())
		return
	}
	resp := PatternsResponse{Length: length, Count: len(patterns)}
	sort.Slice(patterns, func(i, j int) bool { return itemset.Compare(patterns[i], patterns[j]) < 0 })
	for i, p := range patterns {
		if i >= limit {
			break
		}
		resp.Patterns = append(resp.Patterns, t.itemNames(p))
	}
	writeJSON(w, http.StatusOK, resp)
}

// VertexResponse is the payload of GET /api/v1/vertex: the theme-community
// memberships of one vertex.
type VertexResponse struct {
	Vertex      string              `json:"vertex"`
	Alpha       float64             `json:"alpha"`
	Communities []CommunityResponse `json:"communities"`
}

func (s *Server) serveVertex(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id, err := graph.ParseVertex(r.URL.Query().Get("id"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	req, rerr := parseQueryRequest(t, r, 0)
	if rerr != nil {
		rerr.write(w, r)
		return
	}
	communities, err := t.engine.SearchVertex(r.Context(), id, req.Pattern, req.Alpha)
	if err != nil {
		writeError(w, r, queryStatusOf(err), err.Error())
		return
	}
	a := beginAnswer(w, "application/json")
	a.buf = append(a.buf, `{"vertex":`...)
	a.buf = t.names.AppendVertex(a.buf, id)
	a.buf = append(a.buf, `,"alpha":`...)
	a.buf = append(appendFloat(a.buf, req.Alpha), `,"communities":`...)
	a.communities(communities, false, t.names)
	a.buf = append(a.buf, '}')
	s.endAnswer(t, a)
}

// parsePattern resolves a comma-separated list of item names or numeric ids.
func (t *tenant) parsePattern(raw string) (itemset.Itemset, error) {
	return t.parsePatternList(strings.Split(raw, ","))
}

// parsePatternList resolves item names or numeric ids given as separate
// fields (a JSON array keeps names containing commas intact, so fields are
// not split any further).
func (t *tenant) parsePatternList(fields []string) (itemset.Itemset, error) {
	var items []itemset.Item
	for _, field := range fields {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if id, numeric, err := itemset.ParseID(field); numeric {
			if err != nil {
				return nil, err
			}
			items = append(items, id)
			continue
		}
		if t.dict == nil {
			return nil, fmt.Errorf("item %q is not numeric and the server has no dictionary", field)
		}
		id, ok := t.dict.Lookup(field)
		if !ok {
			return nil, fmt.Errorf("unknown item %q", field)
		}
		items = append(items, id)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("empty pattern")
	}
	return itemset.New(items...), nil
}

// itemNames renders an itemset through the dictionary, falling back to
// numeric identifiers.
func (t *tenant) itemNames(p itemset.Itemset) []string {
	out := make([]string, 0, p.Len())
	for _, it := range p {
		if t.dict != nil {
			if name, err := t.dict.Name(it); err == nil {
				out = append(out, name)
				continue
			}
		}
		out = append(out, strconv.Itoa(int(it)))
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(payload)
}

// statusClientClosedRequest is the conventional (nginx) status of a request
// whose client hung up before the answer: logged and counted, never read.
const statusClientClosedRequest = 499

// queryStatusOf maps an engine query failure to its HTTP status: a stream
// crossed by an index update is gone, a cancelled query is the client's
// doing, and anything else — a shard that fails to load — is the server's.
func queryStatusOf(err error) int {
	switch {
	case errors.Is(err, engine.ErrEpochChanged):
		return http.StatusGone
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// writeError is the single choke point every error answer goes through; the
// request supplies the ID the envelope echoes back.
func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	var id string
	if r != nil {
		id = obs.RequestIDFrom(r.Context())
	}
	writeJSON(w, status, errorResponse{Error: msg, Status: status, RequestID: id})
}
