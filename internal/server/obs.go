package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/obs"
	"themecomm/internal/replication"
)

// This file wires the observability layer into the HTTP surface: every route
// is registered through handle (request-ID propagation + HTTP metrics +
// access log when an Observer is configured), GET /metrics renders the
// registry in Prometheus text format, GET /api/v1/slowlog exposes the
// slow-query ring, and /healthz reports build/uptime/readiness. Engine and
// federation counters reach /metrics through scrape-time collectors sampling
// Stats() — the counters stay owned by the engine; the registry only reads
// them at render.

// handle registers one route. With an Observer configured the handler is
// wrapped in the HTTP middleware, with the registered pattern — never the raw
// path — as the route label, so metric cardinality is bounded by the route
// table.
func (s *Server) handle(route string, h http.HandlerFunc) {
	if s.metrics != nil {
		s.mux.Handle(route, s.metrics.Wrap(route, h))
		return
	}
	s.mux.HandleFunc(route, h)
}

// handleMetrics serves GET /metrics. The route is always registered so the
// API surface is uniform; without an observer it answers 404.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obsv == nil {
		writeError(w, r, http.StatusNotFound, "metrics are not enabled on this server")
		return
	}
	s.obsv.Registry().Handler().ServeHTTP(w, r)
}

// SlowLogResponse is the payload of GET /api/v1/slowlog: the slow-query ring,
// newest first, each entry carrying the request ID and the full plan report
// of the slow execution.
type SlowLogResponse struct {
	// ThresholdMicros is the capture threshold; zero means capture is
	// disabled.
	ThresholdMicros int64 `json:"thresholdMicros"`
	// Capacity is the ring size; Total counts every capture since start, so
	// Total > Capacity means old entries have been displaced.
	Capacity int             `json:"capacity"`
	Total    uint64          `json:"total"`
	Entries  []obs.SlowQuery `json:"entries"`
}

func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.obsv == nil {
		writeError(w, r, http.StatusNotFound, "the slow-query log is not enabled on this server")
		return
	}
	sl := s.obsv.SlowLog()
	entries := sl.Entries()
	if entries == nil {
		entries = []obs.SlowQuery{}
	}
	writeJSON(w, http.StatusOK, SlowLogResponse{
		ThresholdMicros: sl.Threshold().Microseconds(),
		Capacity:        sl.Capacity(),
		Total:           sl.Total(),
		Entries:         entries,
	})
}

// HealthResponse is the payload of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	// Version is the main module's version from the embedded build info;
	// "(devel)" or empty for unstamped builds.
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"goVersion"`
	// UptimeSeconds counts from server construction.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Networks lists every served network with its readiness state.
	Networks []NetworkHealth `json:"networks"`
	// Replication reports the replication role (primary or replica), journal
	// position and replica lag; absent on a server that does not replicate.
	Replication *replication.Status `json:"replication,omitempty"`
}

// NetworkHealth is one served network's readiness within GET /healthz.
type NetworkHealth struct {
	Name string `json:"name,omitempty"`
	// Ready reports whether the network can answer queries right now. Lazy
	// networks are ready as soon as their manifest is attached — shards load
	// on first touch.
	Ready bool `json:"ready"`
	Lazy  bool `json:"lazy,omitempty"`
	// Format is where the network's shards come from: "tcbin" for an
	// on-disk index, "memory" for a tree built in-process.
	Format string `json:"format,omitempty"`
	// Shards and ResidentShards report how much of the index is in memory;
	// ResidentBytes is the resident shards' summed memory charge (mapped
	// file size).
	Shards         int   `json:"shards"`
	ResidentShards int   `json:"residentShards"`
	ResidentBytes  int64 `json:"residentBytes,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := HealthResponse{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Networks:      []NetworkHealth{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Version = bi.Main.Version
	}
	if s.replStatus != nil {
		st := s.replStatus()
		resp.Replication = &st
	}
	for _, ns := range s.statsByNetwork() {
		resp.Networks = append(resp.Networks, NetworkHealth{
			Name:           ns.name,
			Ready:          true,
			Lazy:           ns.st.Lazy,
			Format:         ns.st.Format,
			Shards:         ns.st.Shards,
			ResidentShards: ns.st.ResidentShards,
			ResidentBytes:  ns.st.ResidentBytes,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// namedStats is one served network's engine counters, labeled for the
// collectors below.
type namedStats struct {
	name string
	st   engine.Stats
}

// statsByNetwork snapshots every served engine. Snapshots are taken at call
// time — collectors run it on each scrape.
func (s *Server) statsByNetwork() []namedStats {
	var out []namedStats
	for _, n := range s.fed.Stats().PerNetwork {
		out = append(out, namedStats{name: n.Network, st: n.Stats})
	}
	return out
}

// registerCollectors exposes the engine, cache and federation counter
// surfaces as scrape-time collector families: sampled from Stats() at render,
// never double-counted into live instruments.
func (s *Server) registerCollectors() {
	reg := s.obsv.Registry()

	engineCounter := func(name, help string, v func(engine.Stats) float64) {
		reg.CollectFunc(name, help, "counter", []string{"network"}, func() []obs.Sample {
			return s.engineSamples(v)
		})
	}
	engineGauge := func(name, help string, v func(engine.Stats) float64) {
		reg.CollectFunc(name, help, "gauge", []string{"network"}, func() []obs.Sample {
			return s.engineSamples(v)
		})
	}

	engineCounter("tc_engine_queries_total",
		"Engine Query calls (including those issued by batch and top-k).",
		func(st engine.Stats) float64 { return float64(st.Queries) })
	engineCounter("tc_engine_batches_total",
		"Engine QueryBatch calls.",
		func(st engine.Stats) float64 { return float64(st.Batches) })
	engineCounter("tc_engine_topk_queries_total",
		"Engine top-k query calls.",
		func(st engine.Stats) float64 { return float64(st.TopKQueries) })
	engineCounter("tc_engine_explains_total",
		"Engine Explain calls.",
		func(st engine.Stats) float64 { return float64(st.Explains) })
	engineCounter("tc_engine_deltas_applied_total",
		"Applied network deltas (incremental index maintenance).",
		func(st engine.Stats) float64 { return float64(st.DeltasApplied) })
	reg.CollectFunc("tc_engine_delta_nodes_total",
		"Nodes of the shards applied deltas rebuilt, by origin: recomputed from the network (inside a delta's scope) or reused from the shard's previous version.",
		"counter", []string{"network", "kind"}, func() []obs.Sample {
			var out []obs.Sample
			for _, ns := range s.statsByNetwork() {
				out = append(out,
					obs.Sample{Labels: []string{ns.name, "recomputed"}, Value: float64(ns.st.DeltaNodesRecomputed)},
					obs.Sample{Labels: []string{ns.name, "reused"}, Value: float64(ns.st.DeltaNodesReused)})
			}
			return out
		})
	reg.CollectFunc("tc_engine_delta_edges_total",
		"Edges of the shards applied deltas rebuilt, by work: peeled (in the theme networks handed to the peeler) or carried (copied into mined nodes from their previous versions' levels outside the delta's region).",
		"counter", []string{"network", "kind"}, func() []obs.Sample {
			var out []obs.Sample
			for _, ns := range s.statsByNetwork() {
				out = append(out,
					obs.Sample{Labels: []string{ns.name, "peeled"}, Value: float64(ns.st.DeltaEdgesPeeled)},
					obs.Sample{Labels: []string{ns.name, "carried"}, Value: float64(ns.st.DeltaEdgesCarried)})
			}
			return out
		})
	engineCounter("tc_engine_shard_loads_total",
		"Completed lazy shard loads from disk.",
		func(st engine.Stats) float64 { return float64(st.LazyLoads) })
	engineCounter("tc_engine_shard_evictions_total",
		"Budget-driven shard evictions.",
		func(st engine.Stats) float64 { return float64(st.ShardEvictions) })
	engineCounter("tc_engine_shards_skipped_total",
		"Shard tasks answered from the alpha* bound without traversal.",
		func(st engine.Stats) float64 { return float64(st.ShardsSkipped) })
	engineCounter("tc_engine_streams_total",
		"Pull-based streams opened (StreamQuery and StreamTopK).",
		func(st engine.Stats) float64 { return float64(st.Streams) })
	engineCounter("tc_engine_shards_short_circuited_total",
		"Scheduled shards top-k early termination never opened.",
		func(st engine.Stats) float64 { return float64(st.ShardsShortCircuited) })
	engineGauge("tc_engine_index_epoch",
		"Index epoch: swaps installed by shard reloads and applied deltas.",
		func(st engine.Stats) float64 { return float64(st.IndexEpoch) })
	engineGauge("tc_engine_shards",
		"TC-Tree partitions in the network's index.",
		func(st engine.Stats) float64 { return float64(st.Shards) })
	engineGauge("tc_engine_resident_shards",
		"Shards currently resident in memory.",
		func(st engine.Stats) float64 { return float64(st.ResidentShards) })
	engineGauge("tc_engine_resident_bytes",
		"Summed memory charge of resident shards (mapped file bytes).",
		func(st engine.Stats) float64 { return float64(st.ResidentBytes) })
	engineCounter("tc_engine_shards_skipped_catalogue_total",
		"Containment shard tasks pruned by the per-shard item bloom filter.",
		func(st engine.Stats) float64 { return float64(st.ShardsSkippedCatalogue) })

	cacheCounter := func(name, help string, v func(engine.CacheStats) float64) {
		reg.CollectFunc(name, help, "counter", []string{"cache"}, func() []obs.Sample {
			return s.cacheSamples(v)
		})
	}
	cacheGauge := func(name, help string, v func(engine.CacheStats) float64) {
		reg.CollectFunc(name, help, "gauge", []string{"cache"}, func() []obs.Sample {
			return s.cacheSamples(v)
		})
	}
	cacheCounter("tc_cache_hits_total",
		"Result-cache lookups served from the cache.",
		func(c engine.CacheStats) float64 { return float64(c.Hits) })
	cacheCounter("tc_cache_misses_total",
		"Result-cache lookups that fell through to execution.",
		func(c engine.CacheStats) float64 { return float64(c.Misses) })
	cacheCounter("tc_cache_evictions_total",
		"Result-cache entries displaced by the LRU policy.",
		func(c engine.CacheStats) float64 { return float64(c.Evictions) })
	cacheGauge("tc_cache_entries",
		"Result-cache entries resident right now.",
		func(c engine.CacheStats) float64 { return float64(c.Length) })
	cacheGauge("tc_cache_capacity",
		"Result-cache capacity bound.",
		func(c engine.CacheStats) float64 { return float64(c.Capacity) })

	fedCollect := func(name, help, typ string, v func(fs federation.Stats) float64) {
		reg.CollectFunc(name, help, typ, nil, func() []obs.Sample {
			return []obs.Sample{{Value: v(s.fed.Stats())}}
		})
	}
	fedCollect("tc_federation_networks",
		"Networks attached to the federation.", "gauge",
		func(fs federation.Stats) float64 { return float64(fs.Networks) })
	fedCollect("tc_federation_queryalls_total",
		"Cross-network query-all calls.", "counter",
		func(fs federation.Stats) float64 { return float64(fs.QueryAlls) })
	fedCollect("tc_federation_topkalls_total",
		"Cross-network top-k calls.", "counter",
		func(fs federation.Stats) float64 { return float64(fs.TopKAlls) })
	fedCollect("tc_federation_resident_shards",
		"Lazily loaded shards resident across every network.", "gauge",
		func(fs federation.Stats) float64 { return float64(fs.ResidentShards) })
	fedCollect("tc_federation_max_resident_shards",
		"Shared residency budget (0 = unlimited).", "gauge",
		func(fs federation.Stats) float64 { return float64(fs.MaxResidentShards) })
	fedCollect("tc_federation_resident_bytes",
		"Summed memory charge of resident shards across every network.", "gauge",
		func(fs federation.Stats) float64 { return float64(fs.ResidentBytes) })
}

// engineSamples renders one per-network sample per served engine.
func (s *Server) engineSamples(v func(engine.Stats) float64) []obs.Sample {
	stats := s.statsByNetwork()
	out := make([]obs.Sample, 0, len(stats))
	for _, ns := range stats {
		out = append(out, obs.Sample{Labels: []string{ns.name}, Value: v(ns.st)})
	}
	return out
}

// cacheSamples renders the federation's one result cache. It is global —
// every member reports the same counters — so it is emitted exactly once
// under cache="shared" instead of once per network, which would multiply
// every hit by the tenant count.
func (s *Server) cacheSamples(v func(engine.CacheStats) float64) []obs.Sample {
	c := s.fed.Stats().Cache
	if !c.Enabled {
		return nil
	}
	return []obs.Sample{{Labels: []string{"shared"}, Value: v(c)}}
}
