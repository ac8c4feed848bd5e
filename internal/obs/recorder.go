package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"themecomm/internal/trace"
)

// QueryObservation is one engine query as seen by a Recorder. The type lives
// in internal/trace — the dependency-free seam below the layering boundary —
// so the engine can fill it without importing this package; it is re-exported
// here under its historical name for everything above the seam.
type QueryObservation = trace.QueryObservation

// UpdateObservation is one applied network delta as seen by a Recorder,
// re-exported from internal/trace like QueryObservation.
type UpdateObservation = trace.UpdateObservation

// Recorder receives one QueryObservation per engine query. It is the seam
// between the engine and the observability layer (defined in internal/trace,
// re-exported here): the engine is handed a Recorder at construction
// (engine.Options.Recorder) instead of importing a metrics implementation.
type Recorder = trace.Recorder

// ObserverOptions configures NewObserver.
type ObserverOptions struct {
	// Registry receives the observer's metric families; nil means a fresh
	// registry (reachable via Observer.Registry).
	Registry *Registry
	// SlowThreshold is the slow-query capture threshold: a query at least
	// this slow (cache hits excluded) is captured into the slow log and
	// logged. Zero or negative disables capture.
	SlowThreshold time.Duration
	// SlowLogSize is the slow-log ring capacity; zero means 128.
	SlowLogSize int
	// Logger receives the structured slow-query log lines; nil disables
	// logging (the ring buffer still fills).
	Logger *slog.Logger
}

// defaultSlowLogSize is the slow-log ring capacity when ObserverOptions
// leaves SlowLogSize at zero.
const defaultSlowLogSize = 128

// Observer is the production Recorder: per-query latency and stage-timing
// histograms (per tenant) in a Registry, plus a slow-query ring buffer with
// structured logging. It is safe for concurrent use.
type Observer struct {
	reg     *Registry
	slowLog *SlowLog
	logger  *slog.Logger

	queries   *CounterVec   // network, result (hit|miss|error)
	duration  *HistogramVec // network
	stages    *HistogramVec // network, stage (plan|execute|merge|stream|encode)
	slowTotal *CounterVec   // network
	apply     *HistogramVec // network

	// nets caches the resolved per-network series (netSeries), so the hot
	// path pays one lock-free map read instead of label-key joins per family.
	// Keys are tenant names — bounded cardinality by construction.
	nets sync.Map
}

// netSeries is one network's resolved series set.
type netSeries struct {
	hit, miss, errs *Counter
	duration        *Histogram
	plan, exec      *Histogram
	load            *Histogram
	merge, stream   *Histogram
	encode          *Histogram
	slow            *Counter
}

// seriesFor returns the network's resolved series, creating them on first use.
func (o *Observer) seriesFor(network string) *netSeries {
	if s, ok := o.nets.Load(network); ok {
		return s.(*netSeries)
	}
	s := &netSeries{
		hit:      o.queries.With(network, "hit"),
		miss:     o.queries.With(network, "miss"),
		errs:     o.queries.With(network, "error"),
		duration: o.duration.With(network),
		plan:     o.stages.With(network, "plan"),
		exec:     o.stages.With(network, "execute"),
		load:     o.stages.With(network, "load"),
		merge:    o.stages.With(network, "merge"),
		stream:   o.stages.With(network, "stream"),
		encode:   o.stages.With(network, "encode"),
		slow:     o.slowTotal.With(network),
	}
	actual, _ := o.nets.LoadOrStore(network, s)
	return actual.(*netSeries)
}

// NewObserver returns an Observer recording into opts.Registry.
func NewObserver(opts ObserverOptions) *Observer {
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	size := opts.SlowLogSize
	if size <= 0 {
		size = defaultSlowLogSize
	}
	threshold := opts.SlowThreshold
	if threshold < 0 {
		threshold = 0
	}
	return &Observer{
		reg:     reg,
		slowLog: NewSlowLog(size, threshold),
		logger:  opts.Logger,
		queries: reg.Counter("tc_queries_total",
			"Engine queries by outcome: hit (result cache), miss (executed) or error.",
			"network", "result"),
		duration: reg.Histogram("tc_query_duration_seconds",
			"End-to-end engine query latency, cache hits included.",
			nil, "network"),
		stages: reg.Histogram("tc_query_stage_duration_seconds",
			"Query latency split by stage: plan, execute (parallel shard traversal), load (the disk loads of lazy shards an execution performed, summed; part of execute), merge and stream (pull-driven delivery of a streaming execution) of executed queries; encode (the server writing an answer to bytes), cache hits included.",
			nil, "network", "stage"),
		slowTotal: reg.Counter("tc_slow_queries_total",
			"Queries captured by the slow-query log (duration >= threshold, cache hits excluded).",
			"network"),
		apply: reg.Histogram("tc_update_apply_duration_seconds",
			"In-memory apply of a network delta: scope, network mutation, shard rebuild and swap; the journal append and the checkpoint excluded.",
			nil, "network"),
	}
}

// Registry returns the registry the observer records into.
func (o *Observer) Registry() *Registry { return o.reg }

// Logger returns the structured logger the observer logs to; nil when
// logging is disabled.
func (o *Observer) Logger() *slog.Logger { return o.logger }

// SlowLog returns the slow-query ring buffer.
func (o *Observer) SlowLog() *SlowLog { return o.slowLog }

// ObserveEncode records how long the serving layer spent writing one answer
// of network to bytes: the encode stage, observed for cache hits too.
func (o *Observer) ObserveEncode(network string, d time.Duration) {
	o.seriesFor(network).encode.Observe(d.Seconds())
}

// RecordUpdate implements Recorder: the apply histogram moves on every
// applied delta.
func (o *Observer) RecordUpdate(u UpdateObservation) {
	o.apply.With(u.Network).Observe(u.Duration.Seconds())
}

// RecordQuery implements Recorder: the latency histograms move on every
// query; a query at least SlowThreshold slow (and not a cache hit) is
// additionally captured into the slow log — materializing its plan detail —
// and logged with its request ID.
func (o *Observer) RecordQuery(ctx context.Context, q QueryObservation) {
	ns := o.seriesFor(q.Network)
	switch {
	case q.Err:
		ns.errs.Inc()
	case q.CacheHit:
		ns.hit.Inc()
	default:
		ns.miss.Inc()
	}
	ns.duration.Observe(q.Total.Seconds())
	if !q.CacheHit && !q.Err {
		ns.plan.Observe(q.Plan.Seconds())
		ns.exec.Observe(q.Execute.Seconds())
		ns.merge.Observe(q.Merge.Seconds())
		// Only streaming executions carry the stream stage, and only those
		// that read a shard from disk the load stage; observing zeros for
		// every other query would drown the series in noise.
		if q.Load > 0 {
			ns.load.Observe(q.Load.Seconds())
		}
		if q.Stream > 0 {
			ns.stream.Observe(q.Stream.Seconds())
		}
	}
	threshold := o.slowLog.Threshold()
	if threshold <= 0 || q.CacheHit || q.Total < threshold {
		return
	}
	ns.slow.Inc()
	entry := SlowQuery{
		Time:           time.Now(),
		RequestID:      RequestIDFrom(ctx),
		Network:        q.Network,
		Pattern:        q.Pattern,
		Alpha:          q.Alpha,
		DurationMicros: q.Total.Microseconds(),
		PlanMicros:     q.Plan.Microseconds(),
		ExecMicros:     q.Execute.Microseconds(),
		MergeMicros:    q.Merge.Microseconds(),
		StreamMicros:   q.Stream.Microseconds(),
		Shards:         q.Shards,
		SkippedShards:  q.SkippedShards,
		LoadedShards:   q.LoadedShards,
		ShortCircuited: q.ShortCircuited,
	}
	if q.Detail != nil {
		entry.Plan = q.Detail()
	}
	o.slowLog.Add(entry)
	if o.logger != nil {
		o.logger.LogAttrs(ctx, slog.LevelWarn, "slow query",
			slog.String("requestId", entry.RequestID),
			slog.String("network", q.Network),
			slog.String("pattern", q.Pattern),
			slog.Float64("alpha", q.Alpha),
			slog.Int64("durationMicros", entry.DurationMicros),
			slog.Int64("planMicros", entry.PlanMicros),
			slog.Int64("execMicros", entry.ExecMicros),
			slog.Int64("mergeMicros", entry.MergeMicros),
			slog.Int("shards", q.Shards),
			slog.Int("loadedShards", q.LoadedShards),
		)
	}
}
