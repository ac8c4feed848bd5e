package trace

import (
	"context"
	"time"
)

// QueryObservation is one engine query as seen by a Recorder: identity,
// outcome, plan→execute→merge stage timings, and a lazy hook for the full
// plan detail. The engine fills it on every query (cache hits included) and
// hands it to the injected Recorder; building it costs a few field stores, so
// the hot path stays unobserved-speed when no recorder is configured.
type QueryObservation struct {
	// Network is the serving tenant (the engine's cache namespace in a
	// federation); empty for a standalone engine.
	Network string
	// Pattern renders the canonicalized query pattern ("*" = every indexed
	// item, the query-by-alpha workload); Alpha is the cohesion threshold.
	Pattern string
	Alpha   float64
	// CacheHit marks an answer served from the result cache — the stage
	// timings are then zero and Detail is nil.
	CacheHit bool
	// Err marks a failed query (lazy shard-load error).
	Err bool
	// Shards, SkippedShards and LoadedShards summarise the executed plan:
	// scheduled+skipped tasks, α*-skipped tasks, and disk loads this
	// execution performed. ShortCircuited counts scheduled shards a
	// streaming execution never opened (top-k early termination); zero for
	// materializing executions.
	Shards         int
	SkippedShards  int
	LoadedShards   int
	ShortCircuited int
	// Plan, Execute and Merge split Total by stage: planning (pure,
	// catalogue-only), shard traversal (acquire + walk, the parallel part),
	// and the deterministic merge of per-shard answers. Stream is the
	// pull-driven delivery stage of a streaming execution — the wall time
	// from the first pull to Close, shard opens included (so Execute nests
	// inside it); zero for materializing executions, whose delivery is
	// Merge. Load is the summed wall time of the disk loads this execution
	// performed (LoadedShards of them), nested inside Execute; zero when
	// every shard it opened was resident.
	Plan    time.Duration
	Execute time.Duration
	Load    time.Duration
	Merge   time.Duration
	Stream  time.Duration
	Total   time.Duration
	// Detail lazily builds the full per-shard plan/execution report of this
	// very execution (the engine's Explain-shaped payload). Recorders call it
	// only for queries they keep (slow-query capture), so fast queries never
	// pay for it. It may be nil (cache hits, errors).
	Detail func() any
}

// UpdateObservation is one network delta the engine applied, as seen by a
// Recorder: the write side's counterpart of QueryObservation.
type UpdateObservation struct {
	// Network is the updated tenant, labelled like QueryObservation.Network.
	Network string
	// Duration is the in-memory apply (engine.DeltaResult.Duration as the
	// engine returns it): scope, network mutation, shard rebuild and swap.
	// A journal append before it and a checkpoint after it are not part of
	// it.
	Duration time.Duration
}

// Recorder receives one QueryObservation per engine query and one
// UpdateObservation per successfully applied delta. It is the seam between
// the engine and the observability layer: the engine is handed a Recorder
// at construction (engine.Options.Recorder) instead of importing a metrics
// implementation, so tests can record into plain slices and a future
// learned-cost planner can tap the same stream of per-stage latencies.
// Implementations must be safe for concurrent use and must not retain the
// observation's Detail closure past the call.
type Recorder interface {
	RecordQuery(ctx context.Context, o QueryObservation)
	RecordUpdate(o UpdateObservation)
}
