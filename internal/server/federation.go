package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"themecomm/internal/federation"
	"themecomm/internal/itemset"
	"themecomm/internal/replication"
)

// This file holds the multi-network routes beside the bare ones:
//
//	GET /api/v1/networks                     list attached networks
//	GET /api/v1/federationstats              shared-resource + aggregate counters
//	GET /api/v1/queryall                     one query against every network
//	GET /api/v1/{network}/query | explain | enginestats | stats | patterns | vertex
//	POST /api/v1/{network}/batch | update
//
// The {network} routes run the bare routes' handlers verbatim on the
// resolved tenant, so /api/v1/{default}/query and /api/v1/query answer the
// same bytes.

// registerFederationRoutes wires the multi-network routes.
func (s *Server) registerFederationRoutes() {
	s.handle("/api/v1/networks", s.handleNetworks)
	s.handle("/api/v1/federationstats", s.handleFederationStats)
	s.handle("/api/v1/queryall", s.handleQueryAll)
	s.handle("/api/v1/{network}/query", s.forNetwork(s.serveQuery))
	s.handle("/api/v1/{network}/explain", s.forNetwork(s.serveExplain))
	s.handle("/api/v1/{network}/batch", s.forNetwork(s.serveBatch))
	s.handle("/api/v1/{network}/enginestats", s.forNetwork(s.serveEngineStats))
	s.handle("/api/v1/{network}/stats", s.forNetwork(s.serveStats))
	s.handle("/api/v1/{network}/patterns", s.forNetwork(s.servePatterns))
	s.handle("/api/v1/{network}/vertex", s.forNetwork(s.serveVertex))
	s.handle("/api/v1/{network}/update", s.forNetwork(s.serveUpdate))
}

// forNetwork adapts a tenant-scoped handler to the /api/v1/{network}/...
// routes: the path segment resolves the tenant, and an unknown network
// answers 404.
func (s *Server) forNetwork(h func(*tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("network")
		n, ok := s.fed.Network(name)
		if !ok {
			writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown network %q", name))
			return
		}
		h(s.tenantOf(n), w, r)
	}
}

// NetworkSummary is one network of a GET /api/v1/networks listing.
type NetworkSummary struct {
	Name string `json:"name"`
	// Nodes, Shards, Depth and MaxAlpha are the network's index statistics.
	Nodes    int     `json:"nodes"`
	Shards   int     `json:"shards"`
	Depth    int     `json:"depth"`
	MaxAlpha float64 `json:"maxAlpha"`
	// Lazy reports whether the network loads shards on demand;
	// ResidentShards is how many of its shards are in memory right now.
	Lazy           bool `json:"lazy"`
	ResidentShards int  `json:"residentShards"`
}

// NetworksResponse is the payload of GET /api/v1/networks.
type NetworksResponse struct {
	// Default is the network behind the bare routes.
	Default  string           `json:"default,omitempty"`
	Networks []NetworkSummary `json:"networks"`
}

func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := NetworksResponse{Networks: []NetworkSummary{}}
	if t, _ := s.defaultTenant(); t != nil {
		resp.Default = t.name
	}
	for _, name := range s.fed.Names() {
		n, ok := s.fed.Network(name)
		if !ok {
			continue
		}
		eng := n.Engine()
		resp.Networks = append(resp.Networks, NetworkSummary{
			Name:           name,
			Nodes:          eng.NumNodes(),
			Shards:         eng.NumShards(),
			Depth:          eng.Depth(),
			MaxAlpha:       eng.MaxAlpha(),
			Lazy:           eng.Lazy(),
			ResidentShards: eng.Stats().ResidentShards,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// FederationStatsResponse is the payload of GET /api/v1/federationstats: the
// federation's shared-resource counters, plus the replication role state when
// the server is a primary or replica.
type FederationStatsResponse struct {
	federation.Stats
	Replication *replication.Status `json:"replication,omitempty"`
}

func (s *Server) handleFederationStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := FederationStatsResponse{Stats: s.fed.Stats()}
	if s.replStatus != nil {
		st := s.replStatus()
		resp.Replication = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// NetworkQueryResponse is one network's answer within GET /api/v1/queryall.
type NetworkQueryResponse struct {
	Network string `json:"network"`
	QueryResponse
}

// NetworkCommunityResponse is one community of a merged cross-network top-k
// answer.
type NetworkCommunityResponse struct {
	Network string `json:"network"`
	CommunityResponse
}

// QueryAllResponse is the payload of GET /api/v1/queryall: per-network
// answers, or — when k is given — the cross-network top-k merge ordered by
// cohesion, then size, with the network name as final tiebreak.
type QueryAllResponse struct {
	Alpha   float64  `json:"alpha"`
	Pattern []string `json:"pattern,omitempty"`
	TopK    int      `json:"topK,omitempty"`
	// Results holds the per-network answers (k absent).
	Results []NetworkQueryResponse `json:"results,omitempty"`
	// Communities holds the merged cross-network top-k (k given).
	Communities []NetworkCommunityResponse `json:"communities,omitempty"`
}

// resolverFor builds the per-network pattern resolver of a cross-network
// query: each field is either a numeric item identifier (taken as-is) or an
// item name resolved through the network's own dictionary. Names a network
// does not know are dropped for that network — a query pattern is the set of
// allowed items, and an item the network has never seen allows nothing
// extra — and a network resolving no field at all answers nothing (the empty
// non-nil pattern), rather than everything.
func resolverFor(fields []string) federation.PatternResolver {
	return func(n *federation.Network) itemset.Itemset {
		if len(fields) == 0 {
			return nil // every item: the query-by-alpha workload
		}
		items := itemset.Itemset{}
		for _, field := range fields {
			if id, numeric, _ := itemset.ParseID(field); numeric {
				items = items.Add(id) // parseQueryRequest rejected ids out of range
				continue
			}
			if dict := n.Dictionary(); dict != nil {
				if id, ok := dict.Lookup(field); ok {
					items = items.Add(id)
				}
			}
		}
		return items
	}
}

// patternFields splits the raw pattern parameter into trimmed non-empty
// fields.
func patternFields(raw string) []string {
	var fields []string
	for _, field := range strings.Split(raw, ",") {
		if field = strings.TrimSpace(field); field != "" {
			fields = append(fields, field)
		}
	}
	return fields
}

func (s *Server) handleQueryAll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	// Cursors never apply to queryall — members move epochs independently,
	// so no single epoch could validate a resume; the request layer rejects
	// them even without stream=1 rather than silently ignoring the parameter.
	req, rerr := parseQueryRequest(nil, r, capTopK|capStream)
	if rerr != nil {
		rerr.write(w, r)
		return
	}
	alpha, k, fields := req.Alpha, req.K, req.Fields
	resolve := resolverFor(fields)
	if req.Stream {
		s.serveQueryAllStream(w, r, resolve, fields, alpha, k, req.Limit)
		return
	}
	var merged []federation.NetworkRanked
	var results []federation.NetworkResult
	var err error
	if k > 0 {
		merged, err = s.fed.TopKAll(r.Context(), resolve, alpha, k)
	} else {
		results, err = s.fed.QueryAll(r.Context(), resolve, alpha)
	}
	if err != nil {
		writeError(w, r, queryStatusOf(err), err.Error())
		return
	}

	// The QueryAllResponse: per-network answers, or the merged top-k; each
	// network's share of the encode is observed under its name.
	tenants := s.newTenantMemo()
	defer tenants.observeEncode()
	a := beginAnswer(w, "application/json")
	a.buf = append(a.buf, `{"alpha":`...)
	a.buf = appendFloat(a.buf, alpha)
	if len(fields) > 0 {
		a.buf = append(a.buf, `,"pattern":`...)
		a.buf = appendStrings(a.buf, fields)
	}
	a.buf = appendOmitInt(a.buf, `,"topK":`, k)
	listed := false
	// open starts the next element of the answer's one list, which is
	// omitted (omitempty) when nothing is listed.
	open := func(field string) {
		if !listed {
			a.buf = append(a.buf, field...)
			listed = true
		} else {
			a.buf = append(a.buf, ',')
		}
	}
	for _, nr := range results {
		t := tenants.get(nr.Network)
		if t == nil {
			continue
		}
		began := time.Now()
		open(`,"results":[`)
		a.query(&answerHead{network: nr.Network, alpha: alpha, pattern: nr.Pattern, retrieved: nr.Result.RetrievedNodes,
			visited: nr.Result.VisitedNodes, micros: nr.Result.Duration.Microseconds()}, nr.Result.Communities, false, t.names, "")
		t.encode += time.Since(began)
	}
	for i := range merged {
		rc := &merged[i]
		t := tenants.get(rc.Network)
		if t == nil {
			continue
		}
		began := time.Now()
		open(`,"communities":[`)
		a.buf = append(a.buf, `{"network":`...)
		a.buf = append(appendString(a.buf, rc.Network), ',')
		a.buf = appendCommunity(a.buf, &rc.Community, true, t.names)
		a.spill()
		t.encode += time.Since(began)
	}
	if listed {
		a.buf = append(a.buf, ']')
	}
	a.buf = append(a.buf, '}')
	a.end()
}

// tenantMemo resolves the tenants of one cross-network request by network
// name: one tenant per network, not per community, since a cross-network
// answer may carry hundreds of communities from a handful of networks. A
// network detached mid-request resolves to nil; its communities are gone
// anyway.
type tenantMemo struct {
	s       *Server
	tenants map[string]*tenant
}

func (s *Server) newTenantMemo() *tenantMemo {
	return &tenantMemo{s: s, tenants: make(map[string]*tenant)}
}

func (m *tenantMemo) get(name string) *tenant {
	if t, ok := m.tenants[name]; ok {
		return t
	}
	n, ok := m.s.fed.Network(name)
	if !ok {
		return nil
	}
	t := m.s.tenantOf(n)
	m.tenants[name] = t
	return t
}

// observeEncode observes every resolved tenant's share of the encode.
func (m *tenantMemo) observeEncode() {
	for _, t := range m.tenants {
		m.s.observeEncode(t)
	}
}
