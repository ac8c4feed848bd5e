package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"themecomm/internal/tctree"
)

// config is one run's settings.
type config struct {
	spec    spec
	seed    int64
	seconds float64
	// maxOps, when positive, ends the window after that many reads instead
	// of at the deadline, so operation counts repeat exactly.
	maxOps int
	// scale multiplies every workload's dataset scale; 1 is the benchmark.
	scale    float64
	trace    bool
	traceOut string // span file of a traced run; empty = inside the run's scratch space
}

// Set-up is repeated in an untraced run and its median reported, so that one
// slow index build does not read as a set-up regression.
const setupPasses = 3

// rssSlices is how many slices of the window the resident set is read after:
// every workload's window holds at least that many.
const rssSlices = 5

// Validity thresholds of the load generator.
const (
	maxLateMS   = 5.0
	maxCPUShare = 0.25
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. Its exported fields are the -runs file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(cfg config) *result {
	r := &result{Workload: cfg.spec.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	// A per-layer metric that does not apply to a workload reads 0.
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

// set records a metric of the run's catalogue; a name outside it is a bug in
// this file, caught by the smoke test.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("tcload: metric " + name + " is not in the catalogue")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

// runner is the state of one run.
type runner struct {
	cfg  config
	env  *env
	out  io.Writer
	dir  string
	st   *site
	kp   *keyPool
	srv  *child
	chk  *checker
	res  *result
	warm []op // the read warm-up, replayed into the ladder's rungs
	// warmUpdates are the last set-up pass's warm-up update samples; tail
	// is the update tail of a read workload (see updateTail).
	warmUpdates []sample
	tail        []slice
	setupWall   float64 // median set-up pass as measured, seconds

	// clock reads the host's speed off the reference server (refserver.go).
	clock    *refClock
	children []*child
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

func (r *runner) readOp(i int) op { return r.kp.readOp(r.cfg.spec, r.cfg.seed, i) }

// updateOp is the j-th update of the seed's sequence (the window's writer, or
// the update tail).
func (r *runner) updateOp(j int) op {
	return r.kp.updateOp(r.cfg.seed, j, r.cfg.spec.tailUpdates)
}

// warmUpdateOp is the j-th warm-up update. Warm-up is part of setup_s, which
// must not depend on the seed, so these come from a fixed seed and from
// passes over the pool no window reaches.
func (r *runner) warmUpdateOp(j int) op {
	const warmSeed, warmPass = 0, 1 << 20
	return r.kp.updateOp(warmSeed, warmPass*len(r.kp.updateVertices)+j, 0)
}

func (r *runner) spawn(ctx context.Context) (*child, error) {
	c, err := r.env.spawn(ctx, r.st, r.cfg.spec)
	if err == nil {
		r.children = append(r.children, c)
	}
	return c, err
}

// runOnce performs one run of a workload against a freshly spawned server
// and returns its result. Everything it starts is stopped, and everything it
// wrote removed, when it returns.
func runOnce(ctx context.Context, e *env, cfg config, out io.Writer) (*result, error) {
	dir, err := e.runDir(cfg.spec.name)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, env: e, out: out, dir: dir, res: newResult(cfg)}
	defer os.RemoveAll(dir)
	defer func() {
		for _, c := range r.children {
			c.kill()
		}
	}()

	ref, err := e.spawnRef(ctx, dir)
	if err != nil {
		return nil, err
	}
	r.children = append(r.children, ref)
	r.clock = newRefClock(ref.base)
	defer r.clock.close()

	passes := setupPasses
	if cfg.trace {
		passes = 1
	}
	r.chk = &checker{}
	// Each pass runs between two readings of the reference clock and counts
	// in reference time, like every other time the run reports.
	var setups, setupsWall []float64
	before, err := r.clock.read(ctx, r.srv)
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			r.srv.kill()
			if err := os.RemoveAll(r.st.dir); err != nil {
				return nil, err
			}
		}
		took, err := r.setUp(ctx, filepath.Join(dir, fmt.Sprintf("site%d", pass)))
		if err != nil {
			return nil, err
		}
		after, err := r.clock.read(ctx, r.srv)
		if err != nil {
			return nil, err
		}
		setupsWall = append(setupsWall, took.Seconds())
		setups = append(setups, took.Seconds()*speed(before, after))
		if pass == 0 && !cfg.trace && cfg.spec.tailUpdates > 0 {
			if err := r.updateTail(ctx); err != nil {
				return nil, err
			}
		}
		if before, err = r.clock.read(ctx, r.srv); err != nil {
			return nil, err
		}
	}
	r.header(setupsWall)

	if cfg.trace {
		return r.res, r.tracedRun(ctx)
	}
	r.res.set("setup_s", median(setups))
	r.setupWall = median(setupsWall)
	return r.res, r.timedRun(ctx)
}

// setUp is one set-up pass: dataset, index, files, server, warm-up. It
// returns the time a user would wait for it (the key pool, which only the
// harness needs, is built off the clock).
func (r *runner) setUp(ctx context.Context, siteDir string) (time.Duration, error) {
	s := r.cfg.spec
	start := time.Now()
	st, err := buildSite(siteDir, s, r.cfg.scale)
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	r.st, r.chk.st = st, st
	if r.kp, err = newKeyPool(st.tree, st.nw, st.dict); err != nil {
		return 0, err
	}

	start = time.Now()
	if r.srv, err = r.spawn(ctx); err != nil {
		return 0, err
	}
	r.warm = r.warm[:0]
	if s.warmOps == 0 {
		r.warm = append(r.warm, r.kp.hot...)
	} else {
		// Warm-up reads come from far down the seed's sequence, so the
		// window never repeats one of them.
		for i := 0; i < s.warmOps; i++ {
			r.warm = append(r.warm, r.readOp(1<<30+i))
		}
	}
	conns := r.conns(s.readers)
	defer closeAll(conns)
	all := window{deadline: time.Now().Add(time.Hour), maxOps: len(r.warm)}
	reads := closedLoop(ctx, conns, all, func(i int) op { return r.warm[i] }, func(int) bool { return false })
	all.maxOps = s.warmUpdates
	r.warmUpdates = nil
	if s.warmUpdates > 0 {
		r.warmUpdates = closedLoop(ctx, conns[:1], all, r.warmUpdateOp, func(int) bool { return true })
	}
	took += time.Since(start)
	for _, smp := range append(reads, r.warmUpdates...) {
		if !smp.ok() {
			return 0, fmt.Errorf("warm-up failed: %s\n%s", smp.describe(), r.srv.logTail())
		}
	}
	return took, ctx.Err()
}

func (r *runner) conns(n int) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = newConn(r.srv.base)
	}
	return out
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// header prints the lines every output carries, so two outputs can be told
// comparable at a glance.
func (r *runner) header(setups []float64) {
	s := r.cfg.spec
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	r.logf("tcload workload=%s seed=%d seconds=%g trace=%v scale=%g", s.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace, r.cfg.scale)
	r.logf("  commit=%s go=%s nproc=%d gomaxprocs(generator)=%d gomaxprocs(server)=%d (inherited)",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0))
	r.logf("  dataset=%s scale=%g vertices=%d edges=%d transactions=%d items=%d | index nodes=%d depth=%d shards=%d bytes=%d (TCBIN)",
		s.dataset, s.datasetScale*r.cfg.scale, r.st.stats.Vertices, r.st.stats.Edges, r.st.stats.Transactions, r.st.stats.ItemsUnique,
		r.st.tree.NumNodes(), r.st.tree.Depth(), r.st.shards, r.st.indexBytes)
	r.logf("  server flags: %v journal=%v | key pool: %d patterns, %d hot keys, %d update vertices | op-sequence hash %s",
		s.serverFlags(), s.journal, len(r.kp.patterns), len(r.kp.hot), len(r.kp.updateVertices), r.kp.sequenceHash(s, r.cfg.seed))
	if s.journal {
		r.logf("  flush policy: one fsync per journal group commit, background checkpoint every %v", checkpointEvery)
	} else {
		r.logf("  flush policy: staged shard commit and network write-back per update (no journal)")
	}
	r.logf("  set-up passes: %v s", setups)
}

// slice is one stretch of a window during which the workload ran, between
// two readings of the reference clock.
type slice struct {
	reads, updates []sample
	readWall       time.Duration // the readers' stretch
	updateWall     time.Duration // the writer's, to its last acknowledgement
	serverCPU      time.Duration
	rssMB          float64 // the server's VmRSS when the slice ended
	// speed is the host's speed during the slice: the mean of the readings
	// before and after it ÷ refNominal. Wall time × speed is reference time.
	speed float64
}

// measured is what the window produced. reads, updates, wall and serverCPU
// pool the slices as measured; the corrected figures come from the slices.
type measured struct {
	slices         []slice
	reads, updates []sample
	wall           time.Duration // the work slices' read stretches, summed
	serverCPU      time.Duration
	generatorCPU   time.Duration
	rssMB, peakMB  float64 // median VmRSS at the end of the first rssSlices slices; VmHWM at the window's end
}

// readBytes is how many response bytes the window's reads delivered.
func (m *measured) readBytes() int64 {
	var n int64
	for i := range m.reads {
		n += m.reads[i].bytes
	}
	return n
}

// refSeconds is the slices' wall time in reference time.
func refSeconds(ss []slice, wall func(*slice) time.Duration) float64 {
	total := 0.0
	for i := range ss {
		total += wall(&ss[i]).Seconds() * ss[i].speed
	}
	return total
}

// refLatencies are the successful samples' latencies in reference time,
// ascending milliseconds; kind numKinds selects every read.
func refLatencies(ss []slice, pick func(*slice) []sample, kind opKind) []float64 {
	var out []float64
	for i := range ss {
		for _, smp := range pick(&ss[i]) {
			if smp.ok() && (kind == numKinds || smp.kind == kind) {
				out = append(out, float64(smp.latency)/float64(time.Millisecond)*ss[i].speed)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func sliceReads(sl *slice) []sample   { return sl.reads }
func sliceUpdates(sl *slice) []sample { return sl.updates }

// sliced alternates readings of the reference clock with work: reading,
// work(0), reading, work(1), …, reading, until work says it was the last,
// and gives every slice the speed the host had while it ran.
func (r *runner) sliced(ctx context.Context, work func(k int) (sl slice, last bool, err error)) ([]slice, error) {
	before, err := r.clock.read(ctx, r.srv)
	if err != nil {
		return nil, err
	}
	var out []slice
	for k := 0; ctx.Err() == nil; k++ {
		sl, last, err := work(k)
		if err != nil {
			return nil, err
		}
		after, err := r.clock.read(ctx, r.srv)
		if err != nil {
			return nil, err
		}
		sl.speed = speed(before, after)
		before = after
		out = append(out, sl)
		if last {
			break
		}
	}
	return out, ctx.Err()
}

// measure runs the timed window in slices: closed-loop readers, or one
// open-loop reader beside one closed-loop writer, with a reading of the
// reference clock before, between and after the slices.
func (r *runner) measure(ctx context.Context) (*measured, error) {
	s := r.cfg.spec
	nConns := s.readers
	if s.writer {
		nConns++
	}
	conns := r.conns(nConns)
	defer closeAll(conns)
	keep := func(i int) bool { return i%s.sampleEvery == 0 }

	// The window ends with the last slice that fits before its deadline,
	// reading included; a window shorter than one of them is a single short
	// slice. A slice of a fixed operation count takes as long as it takes.
	work := s.slice
	if room := time.Duration(r.cfg.seconds*float64(time.Second)) - refReading; work > room {
		work = max(room, time.Duration(r.cfg.seconds*float64(time.Second))*2/3)
	}
	windowEnd := time.Now().Add(time.Duration(r.cfg.seconds*float64(time.Second)) + refReading)

	m := &measured{}
	var err error
	nextRead, nextUpdate := 0, 0
	m.slices, err = r.sliced(ctx, func(int) (slice, bool, error) {
		var sl slice
		before, err := r.srv.usage()
		if err != nil {
			return sl, false, err
		}
		selfBefore := selfCPU()
		start := time.Now()
		w := window{deadline: start.Add(work), first: nextRead}
		if s.sliceOps > 0 {
			w.deadline, w.maxOps = start.Add(time.Hour), s.sliceOps
		}
		if left := r.cfg.maxOps - nextRead; r.cfg.maxOps > 0 && (w.maxOps == 0 || left < w.maxOps) {
			w.maxOps = left
		}
		var wg sync.WaitGroup
		if s.writer {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The writer runs for as long as the readers: it has no
				// operation cap of its own.
				sl.updates = closedLoop(ctx, conns[s.readers:], window{deadline: w.deadline, first: nextUpdate},
					r.updateOp, func(int) bool { return true })
				sl.updateWall = time.Since(start)
			}()
		}
		if s.readRate > 0 {
			sl.reads = openLoop(ctx, conns[0], start, w, s.readRate, r.readOp, keep)
			// The schedule, not the last answer, ends an open-loop stretch.
			sl.readWall = max(time.Since(start), work)
		} else {
			sl.reads = closedLoop(ctx, conns[:s.readers], w, r.readOp, keep)
			sl.readWall = time.Since(start)
		}
		wg.Wait()
		m.generatorCPU += selfCPU() - selfBefore
		after, err := r.srv.usage()
		if err != nil {
			return sl, false, err
		}
		sl.serverCPU = after.cpu - before.cpu
		sl.rssMB = after.rssMB
		nextRead += len(sl.reads)
		nextUpdate += len(sl.updates)
		// Another slice fits if one as long as this one, and its reading,
		// would end before the window does.
		took := time.Since(start)
		last := time.Now().Add(took+2*refReading).After(windowEnd) || (r.cfg.maxOps > 0 && nextRead >= r.cfg.maxOps)
		return sl, last, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range m.slices {
		m.reads = append(m.reads, m.slices[i].reads...)
		m.updates = append(m.updates, m.slices[i].updates...)
		m.wall += m.slices[i].readWall
		m.serverCPU += m.slices[i].serverCPU
	}
	after, err := r.srv.usage()
	if err != nil {
		return nil, err
	}
	// The resident set grows with the operations served (on qba-scan every
	// answer enters the result cache), so it is read at the same points of
	// every run: the ends of the first rssSlices slices, whatever the host's
	// speed let the window hold beyond them. Their median is reported: the
	// peak of a garbage-collected server depends on how two large answers
	// happened to overlap, the median on what it holds.
	var rss []float64
	for i := range m.slices[:min(rssSlices, len(m.slices))] {
		rss = append(rss, m.slices[i].rssMB)
	}
	m.rssMB, m.peakMB = median(rss), after.hwmMB
	return m, ctx.Err()
}

// okLatencies splits the successful samples of one kind (numKinds = every
// read kind) into ascending millisecond latencies.
func okLatencies(samples []sample, kind opKind) []float64 {
	var lat []time.Duration
	for i := range samples {
		if s := &samples[i]; s.ok() && (kind == numKinds || s.kind == kind) {
			lat = append(lat, s.latency)
		}
	}
	return millis(lat)
}

// report sets a percentile metric from latencies in reference time and
// prints it with its sample count and the percentile as measured, flagging a
// percentile the sample does not support.
func (r *runner) report(name string, corrected, measured []float64, p float64) {
	v, supported := percentile(corrected, p)
	raw, _ := percentile(measured, p)
	r.res.set(name, v)
	note := ""
	if !supported {
		note = fmt.Sprintf("  (fewer than %d samples beyond p%g: read with care)", minBeyond, p)
	}
	r.logf("  %-34s %12.4f %-6s n=%d, as measured %.4f%s", name, v, r.res.Metrics[name].Unit, len(corrected), raw, note)
}

func (r *runner) value(name string, v float64, note string) {
	r.res.set(name, v)
	r.logf("  %-34s %12.4f %-6s %s", name, r.res.Metrics[name].Value, r.res.Metrics[name].Unit, note)
}

// timedRun is the untraced run: window, end-to-end metrics, answer checks,
// and on mixed-rw the durability check. Set-up and update times, and on a
// request-bound workload the window's rates, latencies and CPU time, are
// reported in reference time (see refserver.go); the log carries each as
// measured beside it.
func (r *runner) timedRun(ctx context.Context) error {
	s := r.cfg.spec
	m, err := r.measure(ctx)
	if err != nil {
		return err
	}
	r.logf("reference clock: %d readings, median %.0f req/s = host speed %.3f of the nominal %.0f (lowest %.3f, highest %.3f)",
		len(r.clock.readings), median(r.clock.readings), median(r.clock.readings)/refNominal, refNominal,
		slices.Min(r.clock.readings)/refNominal, slices.Max(r.clock.readings)/refNominal)
	for k := range m.slices {
		sl := &m.slices[k]
		r.logf("  slice %2d: host speed %.3f, %6d reads in %.3f s, %3d updates in %.3f s, server CPU %.2f s",
			k, sl.speed, len(sl.reads), sl.readWall.Seconds(), len(sl.updates), sl.updateWall.Seconds(), sl.serverCPU.Seconds())
	}
	clock := "reference time = wall time × host speed"
	if !s.requestBound {
		clock = "set-up and updates in reference time = wall time × host speed, the window's reads and CPU on the wall clock"
	}
	r.logf("end-to-end metrics (tracing off; %s):", clock)
	r.value("setup_s", r.res.Metrics["setup_s"].Value, fmt.Sprintf("median of %d passes; as measured %.4f", setupPasses, r.setupWall))
	okReads := okLatencies(m.reads, numKinds)
	wall := m.wall.Seconds()
	// Only a request-bound window reads in reference time (see spec); the
	// others keep the wall clock, which for the arithmetic below is a host
	// speed of 1.
	readSlices := m.slices
	if !s.requestBound {
		readSlices = make([]slice, len(m.slices))
		for i, sl := range m.slices {
			sl.speed = 1
			readSlices[i] = sl
		}
	}
	// A rate is the median of the slices' rates: a slice that met a burst
	// the readings round it missed, or a long collection, does not move it.
	perSlice := func(amount func(sl *slice) float64, over func(sl *slice) float64) float64 {
		var vs []float64
		for i := range readSlices {
			if d := over(&readSlices[i]); d > 0 {
				vs = append(vs, amount(&readSlices[i])/d)
			}
		}
		return median(vs)
	}
	okCount := func(sl *slice) float64 { return float64(len(okLatencies(sl.reads, numKinds))) }
	refWall := func(sl *slice) float64 { return sl.readWall.Seconds() * sl.speed }
	nReads := float64(len(okReads))
	r.value("reads_per_s", perSlice(okCount, refWall),
		fmt.Sprintf("median of %d slices, %d reads in %.3f s; as measured %.4f", len(m.slices), len(okReads), wall, nReads/wall))
	refReads := refLatencies(readSlices, sliceReads, numKinds)
	r.report("read_p50_ms", refReads, okReads, 50)
	r.report("read_p95_ms", refReads, okReads, 95)
	r.value("read_mb_per_s", perSlice(func(sl *slice) float64 {
		var n int64
		for i := range sl.reads {
			n += sl.reads[i].bytes
		}
		return float64(n) / 1e6
	}, refWall), fmt.Sprintf("median of slices; as measured %.4f", float64(m.readBytes())/1e6/wall))
	ops := len(m.reads) + len(m.updates)
	r.value("server_rss_mb", m.rssMB, fmt.Sprintf("median VmRSS at the end of the first %d slices; peak (VmHWM) %.1f MB", rssSlices, m.peakMB))
	r.value("server_cpu_ms_per_op", perSlice(func(sl *slice) float64 { return sl.serverCPU.Seconds() * 1e3 * sl.speed },
		func(sl *slice) float64 { return float64(len(sl.reads) + len(sl.updates)) }),
		fmt.Sprintf("median of slices, %d ops; as measured %.4f", ops, float64(m.serverCPU.Milliseconds())/float64(max(ops, 1))))
	updates, where := r.tail, "staged path, on the first pass's server"
	if s.writer {
		updates, where = m.slices, "journaled path, in the window"
	}
	var rawUpdates []sample
	var updateWall time.Duration
	for i := range updates {
		rawUpdates = append(rawUpdates, updates[i].updates...)
		updateWall += updates[i].updateWall
	}
	okUpdates := okLatencies(rawUpdates, kindUpdate)
	nUpdates := float64(len(okUpdates))
	r.value("updates_per_s", nUpdates/refSeconds(updates, func(sl *slice) time.Duration { return sl.updateWall }),
		fmt.Sprintf("%d updates in %.3f s (%s); as measured %.4f", len(okUpdates), updateWall.Seconds(), where, nUpdates/updateWall.Seconds()))
	r.report("update_p50_ms", refLatencies(updates, sliceUpdates, kindUpdate), okUpdates, 50)
	r.validity(m)

	r.res.Attempted += ops + len(r.warmUpdates)
	if s.writer {
		r.chk.checkSamples(m.reads, r.readOp, nil)
		if err := r.durability(ctx, m.updates); err != nil {
			return err
		}
	} else {
		// The index is static under the window: kept answers compare in full.
		r.chk.checkSamples(m.reads, r.readOp, r.st.tree)
		r.chk.checkPaper(ctx, r.srv.base, r.paperPairs())
	}
	return r.finish(ctx)
}

// updateTail gives a read workload its update metrics: tailUpdates updates
// on one connection against the first set-up pass's server, freshly warmed
// and about to be discarded — so the read window's server stays untouched,
// and the updates do not inherit whatever heap the window left behind. The
// server has no journal, so this is the staged write path. The tail runs in
// three slices between readings of the reference clock. The acknowledgements
// are checked, and the served answers for the updated patterns compared with
// the paper's definition on the mirrored network.
func (r *runner) updateTail(ctx context.Context) error {
	const parts = 3
	n := r.cfg.spec.tailUpdates
	conns := r.conns(1)
	defer closeAll(conns)
	var err error
	r.tail, err = r.sliced(ctx, func(k int) (slice, bool, error) {
		var sl slice
		first := k * n / parts
		start := time.Now()
		sl.updates = closedLoop(ctx, conns, window{deadline: start.Add(time.Hour), maxOps: (k+1)*n/parts - first, first: first},
			r.updateOp, func(int) bool { return true })
		sl.updateWall = time.Since(start)
		return sl, k == parts-1, nil
	})
	if err != nil {
		return err
	}
	var all []sample
	for i := range r.tail {
		all = append(all, r.tail[i].updates...)
	}
	r.res.Attempted += len(all)
	r.chk.checkUpdates(all, r.updateOp, false)
	var pairs []op
	for j := 0; j < n; j++ {
		tx := r.updateOp(j).update.AddTransactions[0]
		p := poolPattern{items: r.st.dict.InternAll(tx.Items), names: strings.Join(tx.Items, ",")}
		pairs = append(pairs, patternOp(p, 0.1))
	}
	r.chk.checkPaper(ctx, r.srv.base, pairs)
	return nil
}

// paperPairs are the (pattern, α) pairs checked against the paper's
// definition: hot keys, which every workload's pool has.
func (r *runner) paperPairs() []op {
	const n = 20
	pairs := make([]op, 0, n)
	for i := 0; len(pairs) < n; i++ {
		pairs = append(pairs, r.kp.hot[(i*7)%len(r.kp.hot)])
	}
	return pairs
}

// durability is the mixed-rw check after the window: the acknowledged
// journal sequence is contiguous; a tree built from scratch on the mirrored
// network answers like the live server; and after kill -9 and a restart on
// the same directories it still does, so an acknowledged update a faster
// write path dropped fails the benchmark.
func (r *runner) durability(ctx context.Context, updates []sample) error {
	r.chk.checkUpdates(r.warmUpdates, r.warmUpdateOp, true)
	r.chk.checkUpdates(updates, r.updateOp, true)
	r.logf("durability: %d acknowledged updates, journal seq contiguous up to %d", len(r.chk.affected), r.chk.lastSeq)
	rebuilt := tctree.Build(r.st.nw, tctree.BuildOptions{})
	keys := make([]op, 50)
	for i := range keys {
		keys[i] = r.kp.hotOp(r.cfg.seed, 1<<29+i)
	}
	r.chk.checkTree(ctx, r.srv.base, rebuilt, keys, "live vs rebuilt tree")
	r.srv.kill()
	restarted, err := r.spawn(ctx)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	r.srv = restarted
	r.logf("durability: restarted after kill -9 in %.1f ms", restarted.readyMS)
	r.chk.checkTree(ctx, r.srv.base, rebuilt, keys, "recovered vs rebuilt tree")
	r.chk.checkPaper(ctx, r.srv.base, r.paperPairs())
	return nil
}

// validity reports whether the load generator kept out of the way.
func (r *runner) validity(m *measured) (lateP95, cpuShare float64) {
	var late []time.Duration
	for i := range m.reads {
		late = append(late, m.reads[i].late)
	}
	lateP95, _ = percentile(millis(late), 95)
	if total := m.generatorCPU + m.serverCPU; total > 0 {
		cpuShare = float64(m.generatorCPU) / float64(total)
	}
	valid := lateP95 <= maxLateMS && cpuShare <= maxCPUShare
	r.logf("load generator: dispatch lateness p95 %.3f ms, CPU share %.3f → valid=%v (limits %.0f ms, %.2f)",
		lateP95, cpuShare, valid, maxLateMS, maxCPUShare)
	return lateP95, cpuShare
}

// finish folds the checks into the result.
func (r *runner) finish(ctx context.Context) error {
	r.res.Attempted += r.chk.liveChecks
	r.res.Failed = r.chk.failed
	r.res.Correct = r.chk.failed == 0
	r.logf("checks: %d operations and check queries, %d failed", r.res.Attempted, r.chk.failed)
	for _, f := range r.chk.failures {
		r.logf("  FAIL %s", f)
	}
	return ctx.Err()
}
