package federation

import "themecomm/internal/engine"

// NetworkStats is one network's engine counters within a federation
// snapshot.
type NetworkStats struct {
	// Network is the tenant's name.
	Network string `json:"network"`
	engine.Stats
}

// Stats is a snapshot of the federation: the shared-resource state, the
// cross-tenant aggregates, and every member's own engine counters.
type Stats struct {
	// Networks is the number of attached networks.
	Networks int `json:"networks"`
	// MaxResidentShards and MaxResidentBytes are the shared residency
	// budgets (0 = unlimited); ResidentShards is the number of lazily loaded
	// shards resident across every network right now and ResidentBytes their
	// summed memory charge (mapped file size).
	MaxResidentShards int   `json:"maxResidentShards,omitempty"`
	MaxResidentBytes  int64 `json:"maxResidentBytes,omitempty"`
	ResidentShards    int   `json:"residentShards"`
	ResidentBytes     int64 `json:"residentBytes,omitempty"`
	// Shards, Queries, Batches, TopKQueries, Explains, LazyLoads,
	// ShardEvictions and ShardsSkipped aggregate the member engines'
	// counters across every network.
	Shards         int    `json:"shards"`
	Queries        uint64 `json:"queries"`
	Batches        uint64 `json:"batches"`
	TopKQueries    uint64 `json:"topKQueries"`
	Explains       uint64 `json:"explains,omitempty"`
	LazyLoads      uint64 `json:"lazyLoads,omitempty"`
	ShardEvictions uint64 `json:"shardEvictions,omitempty"`
	ShardsSkipped  uint64 `json:"shardsSkipped"`
	// Streams and ShardsShortCircuited aggregate the members' streaming
	// counters: pull-based streams opened, and scheduled shards top-k early
	// termination never opened.
	Streams              uint64 `json:"streams,omitempty"`
	ShardsShortCircuited uint64 `json:"shardsShortCircuited,omitempty"`
	// QueryAlls and TopKAlls count the federation's cross-network calls.
	QueryAlls uint64 `json:"queryAlls"`
	TopKAlls  uint64 `json:"topKAlls"`
	// Cache is the shared result cache's global state.
	Cache engine.CacheStats `json:"cache"`
	// PerNetwork lists every attached network in ascending name order with
	// its full engine counters.
	PerNetwork []NetworkStats `json:"perNetwork"`
}

// Stats returns a snapshot of the federation's shared resources, aggregates
// and per-network engine counters.
func (f *Federation) Stats() Stats {
	s := Stats{
		MaxResidentShards: f.res.MaxResident(),
		MaxResidentBytes:  f.res.MaxResidentBytes(),
		ResidentShards:    f.res.Resident(),
		ResidentBytes:     f.res.ResidentBytes(),
		QueryAlls:         f.queryAlls.Load(),
		TopKAlls:          f.topKAlls.Load(),
	}
	for _, name := range f.Names() {
		n, ok := f.Network(name)
		if !ok {
			continue
		}
		es := n.eng.Stats()
		s.Networks++
		s.Shards += es.Shards
		s.Queries += es.Queries
		s.Batches += es.Batches
		s.TopKQueries += es.TopKQueries
		s.Explains += es.Explains
		s.LazyLoads += es.LazyLoads
		s.ShardEvictions += es.ShardEvictions
		s.ShardsSkipped += es.ShardsSkipped
		s.Streams += es.Streams
		s.ShardsShortCircuited += es.ShardsShortCircuited
		s.PerNetwork = append(s.PerNetwork, NetworkStats{Network: name, Stats: es})
	}
	if f.cache != nil {
		s.Cache.Enabled = true
		s.Cache.Shared = true
		s.Cache.Capacity = f.cache.Capacity()
		s.Cache.Length = f.cache.Len()
		s.Cache.Hits, s.Cache.Misses, s.Cache.Evictions = f.cache.Counters()
	}
	return s
}
