package engine

// CacheStats reports the state of the result cache.
type CacheStats struct {
	// Enabled reports whether the engine was built with a result cache.
	Enabled bool `json:"enabled"`
	// Capacity and Length are the bound and current size of the cache.
	Capacity int `json:"capacity"`
	Length   int `json:"length"`
	// Hits, Misses and Evictions count cache lookups that were served,
	// lookups that fell through to execution, and entries displaced by the
	// LRU policy.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Shared marks a cache owned by a federation rather than this engine;
	// capacity, length and counters are then global across every tenant.
	Shared bool `json:"shared,omitempty"`
}

// ShardStat is the catalogue and residency state of one shard.
type ShardStat struct {
	// Item is the shard's root item.
	Item int32 `json:"item"`
	// Nodes and MaxAlpha are the shard's node count and α* bound.
	Nodes    int     `json:"nodes"`
	MaxAlpha float64 `json:"maxAlpha"`
	// Resident reports whether the shard is in memory. Heap shards (a tree
	// built in-process, shards rebuilt by a delta and not yet checkpointed)
	// always are; file-backed shards load on first touch and may be evicted
	// under the residency budget.
	Resident bool `json:"resident"`
	// Bytes is the resident view's charge against the residency budget: the
	// size of its TCBIN payload, mapped or on the heap; 0 when the shard is
	// not resident.
	Bytes int64 `json:"bytes,omitempty"`
	// Loads counts the completed disk loads of the shard's current
	// generation (an update that replaces the shard starts a new count).
	Loads uint64 `json:"loads,omitempty"`
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Shards is the number of TC-Tree partitions (indexed top-level items).
	Shards int `json:"shards"`
	// Workers is the shard-traversal parallelism.
	Workers int `json:"workers"`
	// Lazy reports whether shards are loaded from disk on demand.
	Lazy bool `json:"lazy"`
	// Format is where the engine's shards come from: "tcbin" for an on-disk
	// index, "memory" for a tree built in-process.
	Format string `json:"format"`
	// ResidentShards is the number of shards currently in memory (every
	// shard, for a tree built in-process). ResidentBytes sums the resident
	// views' budget charges: the payload size of every shard in memory,
	// mapped file or heap bytes alike.
	ResidentShards int   `json:"residentShards"`
	ResidentBytes  int64 `json:"residentBytes,omitempty"`
	// MaxResidentShards and MaxResidentBytes are the residency budgets
	// (0 = unlimited); either bound being exceeded triggers LRU eviction.
	// When SharedResidency is set the budgets are federation-wide bounds
	// across every member engine's shards, and GroupResidentShards /
	// GroupResidentBytes report the group-wide resident totals this engine
	// contributes to.
	MaxResidentShards   int   `json:"maxResidentShards,omitempty"`
	MaxResidentBytes    int64 `json:"maxResidentBytes,omitempty"`
	SharedResidency     bool  `json:"sharedResidency,omitempty"`
	GroupResidentShards int   `json:"groupResidentShards,omitempty"`
	GroupResidentBytes  int64 `json:"groupResidentBytes,omitempty"`
	// LazyLoads and ShardEvictions count completed disk loads and
	// budget-driven evictions across all shards (lazy engines only).
	LazyLoads      uint64 `json:"lazyLoads,omitempty"`
	ShardEvictions uint64 `json:"shardEvictions,omitempty"`
	// ShardsSkipped counts shard tasks the planner answered from the α*
	// bound alone — relevant shards that were neither traversed nor (on a
	// lazy engine) read from disk. ShardsSkippedCatalogue counts containment
	// shard tasks the per-shard item bloom filter pruned instead.
	ShardsSkipped          uint64 `json:"shardsSkipped"`
	ShardsSkippedCatalogue uint64 `json:"shardsSkippedCatalogue,omitempty"`
	// Queries counts executed queries (including those of a batch and of a
	// top-k); Batches, TopKQueries and Explains count QueryBatchContext,
	// TopKWithResultContext and Explain calls.
	Queries     uint64 `json:"queries"`
	Batches     uint64 `json:"batches"`
	TopKQueries uint64 `json:"topKQueries"`
	Explains    uint64 `json:"explains,omitempty"`
	// Streams counts StreamQuery/StreamTopK calls; ShardsShortCircuited
	// counts scheduled shard tasks ranked executions (top-k streams and
	// TopKWithResultContext) never opened because their α* bound proved they
	// could not improve the answer — relevant, non-α*-skipped shards that
	// were nonetheless neither traversed nor (on a lazy engine) read from
	// disk.
	Streams              uint64 `json:"streams,omitempty"`
	ShardsShortCircuited uint64 `json:"shardsShortCircuited,omitempty"`
	// IndexEpoch counts index swaps (shard reloads and applied deltas);
	// DeltasApplied counts applied deltas. A query result always reflects
	// one single epoch.
	IndexEpoch    uint64 `json:"indexEpoch"`
	DeltasApplied uint64 `json:"deltasApplied,omitempty"`
	// DeltaNodesRecomputed and DeltaNodesReused split the nodes of every
	// shard the applied deltas rebuilt: mined from the network because a
	// delta's scope covered their pattern, or carried over from the shard's
	// previous version (DeltaResult).
	DeltaNodesRecomputed uint64 `json:"deltaNodesRecomputed,omitempty"`
	DeltaNodesReused     uint64 `json:"deltaNodesReused,omitempty"`
	// DeltaEdgesPeeled and DeltaEdgesCarried split the work of the same
	// rebuilds by edges: the edges of the theme networks handed to the
	// peeler, and the edges mined nodes took from their previous versions'
	// levels outside the deltas' regions (DeltaResult).
	DeltaEdgesPeeled  uint64 `json:"deltaEdgesPeeled,omitempty"`
	DeltaEdgesCarried uint64 `json:"deltaEdgesCarried,omitempty"`
	// Cache reports the result-cache state.
	Cache CacheStats `json:"cache"`
	// ShardResidency lists every shard in ascending root-item order with its
	// catalogue statistics and residency state.
	ShardResidency []ShardStat `json:"shardResidency,omitempty"`
}

// Stats returns a snapshot of the engine counters. It is safe to call
// concurrently with Query, ApplyDeltaInMemory, Checkpoint and every other engine
// method, and it never blocks them: the shard table is read through one
// atomic pointer load and each counter through one atomic load.
//
// Snapshot semantics: the shard table (Shards, ShardResidency) is one
// consistent table — never a mix of pre- and post-delta shard sets — because
// updates install a whole new table in a single atomic store. The scalar
// counters, however, are each read atomically but at slightly different
// instants, so cross-counter identities need not hold exactly under
// concurrent load: a snapshot may observe a query whose cache miss is counted
// but whose execution counters have not landed yet (e.g. Cache.Hits +
// Cache.Misses may transiently exceed Queries, or LazyLoads may trail a
// ShardResidency entry already marked resident). Every counter is
// monotonically non-decreasing (except Cache.Length, ResidentShards and
// GroupResidentShards, which are gauges), so rates computed between two
// snapshots are meaningful; exact cross-counter equalities are only
// guaranteed on a quiescent engine.
func (e *Engine) Stats() Stats {
	t := e.table.Load()
	s := Stats{
		Shards:                 len(t.shards),
		Workers:                e.workers,
		Lazy:                   e.Lazy(),
		Format:                 e.Format(),
		MaxResidentShards:      e.res.max,
		MaxResidentBytes:       e.res.maxBytes,
		SharedResidency:        e.sharedRes,
		LazyLoads:              e.lazyLoads.Load(),
		ShardEvictions:         e.evictions.Load(),
		ShardsSkipped:          e.skipped.Load(),
		ShardsSkippedCatalogue: e.skippedCatalogue.Load(),
		Queries:                e.queries.Load(),
		Batches:                e.batches.Load(),
		TopKQueries:            e.topKs.Load(),
		Explains:               e.explains.Load(),
		Streams:                e.streams.Load(),
		ShardsShortCircuited:   e.shortCircuited.Load(),
		IndexEpoch:             e.epoch.Load(),
		DeltasApplied:          e.deltas.Load(),
		DeltaNodesRecomputed:   e.nodesRecomputed.Load(),
		DeltaNodesReused:       e.nodesReused.Load(),
		DeltaEdgesPeeled:       e.edgesPeeled.Load(),
		DeltaEdgesCarried:      e.edgesCarried.Load(),
	}
	for _, sh := range t.shards {
		nodes, _, maxAlpha := sh.meta()
		stat := ShardStat{
			Item:     int32(sh.item),
			Nodes:    nodes,
			MaxAlpha: maxAlpha,
			Resident: sh.resident(),
			Bytes:    sh.sizeBytes(),
			Loads:    sh.loads.Load(),
		}
		if stat.Resident {
			s.ResidentShards++
		}
		s.ResidentBytes += stat.Bytes
		s.ShardResidency = append(s.ShardResidency, stat)
	}
	if e.sharedRes {
		s.GroupResidentShards = e.res.Resident()
		s.GroupResidentBytes = e.res.ResidentBytes()
	}
	if e.cache != nil {
		s.Cache.Enabled = true
		s.Cache.Shared = e.sharedCache
		s.Cache.Capacity = e.cache.cap
		s.Cache.Length = e.cache.len()
		s.Cache.Hits, s.Cache.Misses, s.Cache.Evictions = e.cache.counters()
	}
	return s
}
