package main

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// module root restates name, unit, direction and bound for the driver;
// TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 on
	// per-layer metrics, which have none.
	bound float64
	// layer is the package a per-layer metric belongs to.
	layer string
	// moves names the end-to-end metric and workload the metric should move.
	moves string
}

// endToEnd are the metrics a user of the served system sees. Every workload
// reports every one of them, and none can read 0 on a healthy run. The
// failure share of a run is not listed: on a healthy run it is 0, so it is
// reported through the result line's failed/attempted counts instead.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "reads_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_mb_per_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "updates_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "update_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "server_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "server_cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run, in report order.
var perLayer = []metricDef{
	{name: "gen.dataset_s", unit: "s", better: "lower", layer: "gen", moves: "setup_s on all"},
	{name: "tctree.build_s", unit: "s", better: "lower", layer: "tctree", moves: "setup_s on all"},
	{name: "tctree.write_s", unit: "s", better: "lower", layer: "tctree", moves: "setup_s on all"},
	{name: "tctree.open_ms", unit: "ms", better: "lower", layer: "tctree", moves: "setup_s on all"},
	{name: "tctree.index_bytes_per_node", unit: "B", better: "lower", layer: "tctree", moves: "space; trades against tctree.shard_load_us"},
	{name: "tctree.shard_load_us", unit: "us", better: "lower", layer: "tctree", moves: "read_p50_ms on lazy-churn; none on qbp-hot"},
	{name: "tctree.shard_loads_per_op", unit: "count", better: "lower", layer: "tctree", moves: "read_p50_ms, server_cpu_ms_per_op on lazy-churn"},
	{name: "tctree.evictions_per_op", unit: "count", better: "lower", layer: "tctree", moves: "read_p50_ms, server_cpu_ms_per_op on lazy-churn"},
	{name: "tctree.rebuild_ms", unit: "ms", better: "lower", layer: "tctree", moves: "update_p50_ms, updates_per_s, read_p95_ms on mixed-rw"},
	{name: "engine.cache_hit_ratio", unit: "ratio", better: "higher", layer: "engine", moves: "read_p50_ms on qbp-hot (about 1) and mixed-rw; 0 by construction elsewhere"},
	{name: "engine.query_ms", unit: "ms", better: "lower", layer: "engine", moves: "read_p50_ms, read_p95_ms on qba-scan"},
	{name: "engine.plan_us", unit: "us", better: "lower", layer: "engine", moves: "read_p50_ms on qba-scan"},
	{name: "engine.execute_ms", unit: "ms", better: "lower", layer: "engine", moves: "read_p50_ms on qba-scan, lazy-churn"},
	{name: "engine.merge_us", unit: "us", better: "lower", layer: "engine", moves: "read_p50_ms on qba-scan"},
	{name: "engine.stream_ms", unit: "ms", better: "lower", layer: "engine", moves: "op.stream.p50_ms on qba-scan"},
	{name: "engine.nodes_visited_per_op", unit: "count", better: "lower", layer: "engine", moves: "engine.execute_ms on qba-scan"},
	{name: "engine.useful_visit_ratio", unit: "ratio", better: "higher", layer: "engine", moves: "engine.execute_ms on qba-scan"},
	{name: "engine.shards_skipped_per_op", unit: "count", better: "higher", layer: "engine", moves: "read_p50_ms on qba-scan"},
	{name: "engine.shards_short_circuited_per_op", unit: "count", better: "higher", layer: "engine", moves: "op.stream.p50_ms on qba-scan"},
	{name: "engine.topk_rank_self_ms", unit: "ms", better: "lower", layer: "engine", moves: "op.topk.p50_ms on qba-scan"},
	{name: "engine.stream_first_ms", unit: "ms", better: "lower", layer: "engine", moves: "op.stream.p50_ms on qba-scan"},
	{name: "engine.apply_ms", unit: "ms", better: "lower", layer: "engine", moves: "update_p50_ms on mixed-rw"},
	{name: "engine.apply_self_ms", unit: "ms", better: "lower", layer: "engine", moves: "update_p50_ms on mixed-rw"},
	{name: "engine.checkpoint_ms", unit: "ms", better: "lower", layer: "engine", moves: "read_p95_ms on mixed-rw"},
	{name: "delta.affected_items_per_update", unit: "count", better: "lower", layer: "delta", moves: "tctree.rebuild_ms, update_p50_ms on mixed-rw"},
	{name: "delta.apply_us", unit: "us", better: "lower", layer: "delta", moves: "update_p50_ms on mixed-rw"},
	{name: "delta.encode_bytes", unit: "B", better: "lower", layer: "delta", moves: "journal.bytes_per_update on mixed-rw"},
	{name: "journal.append_ms", unit: "ms", better: "lower", layer: "journal", moves: "update_p50_ms on mixed-rw (expected share under 5 %)"},
	{name: "journal.fsyncs_per_update", unit: "count", better: "lower", layer: "journal", moves: "update_p50_ms on mixed-rw"},
	{name: "journal.bytes_per_update", unit: "B", better: "lower", layer: "journal", moves: "update_p50_ms on mixed-rw"},
	{name: "replication.apply_ms", unit: "ms", better: "lower", layer: "replication", moves: "update_p50_ms on mixed-rw"},
	{name: "replication.checkpoint_ms", unit: "ms", better: "lower", layer: "replication", moves: "read_p95_ms on mixed-rw"},
	{name: "replication.checkpoints", unit: "count", better: "higher", layer: "replication", moves: "read_p95_ms on mixed-rw"},
	{name: "replication.recover_ms", unit: "ms", better: "lower", layer: "replication", moves: "setup_s of a restart"},
	{name: "dbnet.write_ms", unit: "ms", better: "lower", layer: "dbnet", moves: "replication.checkpoint_ms on mixed-rw"},
	{name: "server.ready_ms", unit: "ms", better: "lower", layer: "server", moves: "setup_s on all"},
	{name: "server.http_ms", unit: "ms", better: "lower", layer: "server", moves: "read_p50_ms on all"},
	{name: "server.render_self_ms", unit: "ms", better: "lower", layer: "server", moves: "read_p50_ms on qbp-hot; read_p95_ms, read_mb_per_s on qba-scan"},
	{name: "server.render_ladder_ms", unit: "ms", better: "lower", layer: "server", moves: "cross-check of server.render_self_ms"},
	{name: "server.resp_kb_per_op", unit: "kB", better: "lower", layer: "server", moves: "read_mb_per_s on qba-scan"},
	{name: "server.non200", unit: "count", better: "lower", layer: "server", moves: "failed operations on all"},
	{name: "client.rtt_self_ms", unit: "ms", better: "lower", layer: "client", moves: "read_p50_ms on qbp-hot"},
	{name: "client.decode_self_ms", unit: "ms", better: "lower", layer: "client", moves: "none: the timed path does not decode"},
	{name: "core.mpt_detect_ms", unit: "ms", better: "lower", layer: "core", moves: "none: the cost of checking"},
	{name: "op.qbp.p50_ms", unit: "ms", better: "lower", layer: "op", moves: "read_p50_ms on qbp-hot, lazy-churn, mixed-rw"},
	{name: "op.qba.p50_ms", unit: "ms", better: "lower", layer: "op", moves: "read_p50_ms on qba-scan"},
	{name: "op.qba.p95_ms", unit: "ms", better: "lower", layer: "op", moves: "read_p95_ms on qba-scan"},
	{name: "op.topk.p50_ms", unit: "ms", better: "lower", layer: "op", moves: "read_p50_ms on qba-scan"},
	{name: "op.stream.p50_ms", unit: "ms", better: "lower", layer: "op", moves: "read_p50_ms on qba-scan"},
	{name: "op.update.p90_ms", unit: "ms", better: "lower", layer: "op", moves: "update_p50_ms on mixed-rw"},
	{name: "loadgen.late_p95_ms", unit: "ms", better: "lower", layer: "loadgen", moves: "validity of mixed-rw: above 5 ms the schedule was not kept"},
	{name: "loadgen.cpu_share", unit: "ratio", better: "lower", layer: "loadgen", moves: "validity: above 0.25 the generator competes with the server"},
	{name: "loadgen.host_speed", unit: "ratio", better: "higher", layer: "loadgen", moves: "none: the reference clock's median reading ÷ its nominal; the end-to-end times are wall time × this"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "trace", moves: "none: cost of recording spans"},
	{name: "trace.unaccounted_ratio", unit: "ratio", better: "lower", layer: "trace", moves: "none: share of the observed latency no ladder rung explains"},
}
