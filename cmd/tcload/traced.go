package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"
)

// tracedRun is the per-layer run. Its window is untraced too — the counts
// come from two /metrics scrapes around it — and the ladder then replays a
// subsample of the window's operations with a span round every call.
func (r *runner) tracedRun(ctx context.Context) error {
	s := r.cfg.spec
	tr := &tracer{}
	ladderDir := filepath.Join(r.dir, "ladder")

	// The ladder's copies are written before the window: afterwards a
	// journaled server has checkpointed into the served directory.
	networksDir := r.st.networksDir
	var wl *writeLadder
	var err error
	if s.writer {
		if networksDir, err = copySite(r.st, filepath.Join(ladderDir, "reads")); err != nil {
			return err
		}
		if wl, err = newWriteLadder(tr, r.st, s, ladderDir); err != nil {
			return err
		}
		defer wl.close()
	}

	before, err := scrapeMetrics(r.srv.base)
	if err != nil {
		return err
	}
	stopPoll := make(chan struct{})
	var checkpoints int
	var pollWG sync.WaitGroup
	if s.journal {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			checkpoints = r.countCheckpoints(stopPoll)
		}()
	}
	m, err := r.measure(ctx)
	close(stopPoll)
	pollWG.Wait()
	if err != nil {
		return err
	}
	after, err := scrapeMetrics(r.srv.base)
	if err != nil {
		return err
	}
	d := metricsDelta{before: before, after: after}
	r.res.Attempted = len(m.reads) + len(m.updates) + len(r.warmUpdates)

	r.logf("per-layer metrics (window untraced, counts from /metrics; ladder traced):")
	for name, v := range r.st.buildSpans {
		r.res.set(name, v)
	}
	r.res.set("server.ready_ms", r.srv.readyMS)
	r.res.set("tctree.index_bytes_per_node", float64(r.st.indexBytes)/float64(max(r.st.tree.NumNodes(), 1)))

	okReads := okLatencies(m.reads, numKinds)
	nReads := float64(max(len(okReads), 1))
	const queryRoute = "/api/v1/query"
	r.res.set("tctree.shard_loads_per_op", d.counter("tc_engine_shard_loads_total")/nReads)
	r.res.set("tctree.evictions_per_op", d.counter("tc_engine_shard_evictions_total")/nReads)
	hits, misses := d.counter("tc_cache_hits_total"), d.counter("tc_cache_misses_total")
	r.res.set("engine.cache_hit_ratio", ratio(hits, hits+misses))
	r.res.set("engine.query_ms", d.histMean("tc_query_duration_seconds")*1e3)
	const stages = "tc_query_stage_duration_seconds"
	r.res.set("engine.plan_us", d.histMean(stages, "stage", "plan")*1e6)
	r.res.set("engine.execute_ms", d.histMean(stages, "stage", "execute")*1e3)
	r.res.set("engine.merge_us", d.histMean(stages, "stage", "merge")*1e6)
	r.res.set("engine.stream_ms", d.histMean(stages, "stage", "stream")*1e3)
	r.res.set("engine.shards_skipped_per_op", d.counter("tc_engine_shards_skipped_total")/nReads)
	r.res.set("engine.shards_short_circuited_per_op", d.counter("tc_engine_shards_short_circuited_total")/nReads)
	const httpDur = "tc_http_request_duration_seconds"
	httpMS := d.histMean(httpDur, "route", queryRoute) * 1e3
	r.res.set("server.http_ms", httpMS)
	httpCount := d.counter(httpDur+"_count", "route", queryRoute)
	r.res.set("server.render_self_ms", ratio(d.counter(httpDur+"_sum", "route", queryRoute)-d.counter("tc_query_duration_seconds_sum"), httpCount)*1e3)
	r.res.set("server.resp_kb_per_op", float64(m.readBytes())/1e3/nReads)
	r.res.set("server.non200", d.counter("tc_http_requests_total")-d.counter("tc_http_requests_total", "code", "200"))
	r.res.set("client.rtt_self_ms", mean(okReads)-httpMS)
	if appends := d.counter("tc_journal_appends_total"); appends > 0 {
		r.res.set("journal.fsyncs_per_update", d.counter("tc_journal_fsyncs_total")/appends)
		r.res.set("journal.bytes_per_update", d.counter("tc_journal_bytes_total")/appends)
	}
	r.res.set("replication.checkpoints", float64(checkpoints))

	for _, pk := range []struct {
		name string
		kind opKind
		p    float64
	}{
		{"op.qbp.p50_ms", kindQBP, 50}, {"op.qba.p50_ms", kindQBA, 50}, {"op.qba.p95_ms", kindQBA, 95},
		{"op.topk.p50_ms", kindTopK, 50}, {"op.stream.p50_ms", kindStream, 50},
	} {
		v, _ := percentile(okLatencies(m.reads, pk.kind), pk.p)
		r.res.set(pk.name, v)
	}
	p90, _ := percentile(okLatencies(m.updates, kindUpdate), 90)
	r.res.set("op.update.p90_ms", p90)
	late, share := r.validity(m)
	r.res.set("loadgen.late_p95_ms", late)
	r.res.set("loadgen.cpu_share", share)
	r.res.set("loadgen.host_speed", median(r.clock.readings)/refNominal)

	// Answer checks, as in the untraced run; they also yield the traversal
	// counters of the decoded answers.
	if s.writer {
		r.chk.checkSamples(m.reads, r.readOp, nil)
		if err := r.durability(ctx, m.updates); err != nil {
			return err
		}
		r.res.set("replication.recover_ms", r.srv.readyMS)
	} else {
		r.chk.checkSamples(m.reads, r.readOp, r.st.tree)
		r.chk.checkPaper(ctx, r.srv.base, r.paperPairs())
	}
	if r.chk.decoded > 0 {
		r.res.set("engine.nodes_visited_per_op", float64(r.chk.visited)/float64(r.chk.decoded))
		r.res.set("engine.useful_visit_ratio", ratio(float64(r.chk.retrieved), float64(r.chk.visited)))
	}
	if r.chk.detectCalls > 0 {
		r.res.set("core.mpt_detect_ms", float64(r.chk.detect.Microseconds())/1e3/float64(r.chk.detectCalls))
	}
	r.res.set("delta.affected_items_per_update", mean(r.chk.affected))

	budget := time.Duration(r.cfg.seconds * float64(time.Second) / 2)
	if err := r.readLadder(ctx, tr, networksDir, m, budget); err != nil {
		return err
	}
	if wl != nil {
		r.writeLadder(tr, wl, budget)
	}
	traceOut := r.cfg.traceOut
	if traceOut == "" {
		traceOut = filepath.Join(r.env.work, fmt.Sprintf("trace-%s-%d.ndjson", s.name, r.cfg.seed))
	}
	if err := tr.write(traceOut); err != nil {
		return err
	}
	for _, def := range perLayer {
		r.logf("  %-36s %14.4f %-6s [%s] → %s", def.name, r.res.Metrics[def.name].Value, def.unit, def.layer, def.moves)
	}
	r.logf("trace: %d spans written to %s", len(tr.spans), traceOut)
	return r.finish(ctx)
}

// countCheckpoints polls the server's flushed journal position twice a
// second and counts its advances: each is one background checkpoint that
// folded dirty shards into the on-disk index.
func (r *runner) countCheckpoints(stop <-chan struct{}) int {
	advances := 0
	last := math.Inf(1) // the first scrape sets the base
	for {
		if sc, err := scrapeMetrics(r.srv.base); err == nil {
			v := sc.sum("tc_replication_flushed_seq")
			if v > last {
				advances++
			}
			last = v
		}
		select {
		case <-stop:
			return advances
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// readLadder replays every ladderEvery-th read of the window down the ladder
// until the budget is spent, and derives the rung-difference metrics.
func (r *runner) readLadder(ctx context.Context, tr *tracer, networksDir string, m *measured, budget time.Duration) error {
	s := r.cfg.spec
	l, err := newReadLadder(tr, s, r.srv.base, networksDir)
	if err != nil {
		return err
	}
	defer l.close()
	if err := l.warm(ctx, r.warm); err != nil {
		return err
	}
	issued := 0
	for i := range m.reads {
		issued = max(issued, m.reads[i].index+1)
	}
	deadline := time.Now().Add(budget)
	var replayed []int
	for i := 0; i < issued && time.Now().Before(deadline); i += s.ladderEvery {
		if err := l.replay(ctx, r.readOp(i), i); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		replayed = append(replayed, i)
	}
	if l.ops == 0 {
		return nil
	}
	// Tracing overhead: the same operations twice more on one connection,
	// back to back, once with a span round each and once without.
	var tracedRaw, untracedRaw time.Duration
	for pass, total := range []*time.Duration{&tracedRaw, &untracedRaw} {
		start := time.Now()
		for _, i := range replayed {
			o := r.readOp(i)
			if pass == 0 {
				tr.call(0, i, "overhead.raw", func() { _, _, _, err = l.raw.do(ctx, o, false) })
			} else {
				_, _, _, err = l.raw.do(ctx, o, false)
			}
			if err != nil {
				return err
			}
		}
		*total = time.Since(start)
	}
	r.res.set("trace.overhead_ratio", float64(tracedRaw)/float64(untracedRaw)-1)

	raw, srv, eng := l.perOpMS(l.rawT), l.perOpMS(l.serverT), l.perOpMS(l.engineT)
	loads := l.perOpMS(l.loadT)
	if l.loads > 0 {
		r.res.set("tctree.shard_load_us", float64(l.loadT.Microseconds())/float64(l.loads))
	}
	r.res.set("client.decode_self_ms", l.perOpMS(l.clientT)-raw)
	r.res.set("server.render_ladder_ms", math.Max(0, srv-eng))
	st := tr.stats()
	r.res.set("engine.topk_rank_self_ms", st.meanMS("engine.TopKWithResultContext")-st.meanMS("engine.Explain"))
	r.res.set("engine.stream_first_ms", st.meanMS("engine.stream.first"))

	// Self times telescope down the ladder; what the window's clients saw
	// beyond their sum — queueing behind the other connection, contention
	// with writes — is the share no rung explains.
	selfSum := math.Max(0, raw-srv) + math.Max(0, srv-eng) + math.Max(0, eng-loads) + loads
	inLadder := make(map[int]bool, len(replayed))
	for _, i := range replayed {
		inLadder[i] = true
	}
	var observed []float64
	for i := range m.reads {
		if smp := &m.reads[i]; smp.ok() && inLadder[smp.index] {
			observed = append(observed, float64(smp.latency)/float64(time.Millisecond))
		}
	}
	if obs := mean(observed); obs > 0 {
		r.res.set("trace.unaccounted_ratio", 1-selfSum/obs)
	}
	r.logf("read ladder: %d operations; per op raw %.3f ms, client.Do %.3f, ServeHTTP %.3f, engine %.3f, shard loads %.3f (%d loads); window saw %.3f ms",
		l.ops, raw, l.perOpMS(l.clientT), srv, eng, loads, l.loads, mean(observed))
	return nil
}

// writeLadder replays the window's first updates down the write ladder
// until the budget is spent, with the checkpoint rungs after every second.
func (r *runner) writeLadder(tr *tracer, l *writeLadder, budget time.Duration) {
	const maxUpdates, checkpointEveryN = 30, 2
	deadline := time.Now().Add(budget)
	for j := 0; j < maxUpdates && time.Now().Before(deadline); j++ {
		if err := l.replay(r.updateOp(j), j, (j+1)%checkpointEveryN == 0); err != nil {
			r.chk.fail("write ladder update %d: %v", j, err)
			return
		}
	}
	if l.updates == 0 {
		return
	}
	st := tr.stats()
	n := float64(l.updates)
	r.res.set("tctree.rebuild_ms", st.meanMS("tctree.RebuildSubtrees"))
	r.res.set("engine.apply_ms", st.meanMS("engine.ApplyDeltaInMemory"))
	r.res.set("engine.apply_self_ms", math.Max(0, float64((l.applyT-l.rawParts).Microseconds())/1e3/n))
	r.res.set("engine.checkpoint_ms", st.meanMS("engine.Checkpoint"))
	r.res.set("delta.apply_us", st.meanMS("delta.Apply")*1e3)
	r.res.set("delta.encode_bytes", float64(l.encodeBytes)/n)
	r.res.set("journal.append_ms", st.meanMS("journal.Append"))
	r.res.set("replication.apply_ms", st.meanMS("replication.Primary.Apply"))
	r.res.set("replication.checkpoint_ms", st.meanMS("replication.Primary.Checkpoint"))
	r.res.set("dbnet.write_ms", st.meanMS("dbnet.WriteFileAtomic"))
	r.logf("write ladder: %d updates replayed", l.updates)
}
