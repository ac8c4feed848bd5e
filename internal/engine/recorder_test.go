package engine

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"themecomm/internal/delta"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/obs"
)

// captureRecorder records observations into a slice — the injection seam
// exercised the way a test (or a learned-cost planner) would use it.
type captureRecorder struct {
	mu      sync.Mutex
	obs     []obs.QueryObservation
	updates []obs.UpdateObservation
}

func (r *captureRecorder) RecordUpdate(u obs.UpdateObservation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.updates = append(r.updates, u)
}

func (r *captureRecorder) RecordQuery(_ context.Context, o obs.QueryObservation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = append(r.obs, o)
}

func (r *captureRecorder) all() []obs.QueryObservation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.QueryObservation(nil), r.obs...)
}

func TestRecorderObservations(t *testing.T) {
	rec := &captureRecorder{}
	eng, err := New(testIndex(t, 7), Options{CacheSize: 8, Recorder: rec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	res := mustQueryByAlpha(t, eng, 0.2) // miss
	mustQueryByAlpha(t, eng, 0.2)        // hit

	got := rec.all()
	if len(got) != 2 {
		t.Fatalf("observations = %d, want 2", len(got))
	}
	miss, hit := got[0], got[1]
	if miss.CacheHit || miss.Err {
		t.Fatalf("first query observed as hit/err: %+v", miss)
	}
	if miss.Pattern != "*" {
		t.Fatalf("full query pattern label = %q, want *", miss.Pattern)
	}
	if miss.Alpha != 0.2 || miss.Shards != eng.NumShards() {
		t.Fatalf("miss identity = %+v", miss)
	}
	if miss.Total <= 0 || miss.Execute <= 0 || miss.Merge < 0 || miss.Plan < 0 {
		t.Fatalf("miss stage timings not populated: %+v", miss)
	}
	if miss.Total < miss.Plan+miss.Execute+miss.Merge {
		t.Fatalf("stages exceed total: %+v", miss)
	}
	if miss.Load != 0 || miss.LoadedShards != 0 {
		t.Fatalf("an engine over heap shards observed disk loads: %+v", miss)
	}
	if miss.Detail == nil {
		t.Fatalf("miss carries no Detail hook")
	}
	report, ok := miss.Detail().(*ExplainReport)
	if !ok {
		t.Fatalf("Detail() = %T, want *ExplainReport", miss.Detail())
	}
	if report.RetrievedNodes != res.RetrievedNodes || len(report.Tasks) != miss.Shards {
		t.Fatalf("Detail report does not describe the execution: %+v", report)
	}

	if !hit.CacheHit {
		t.Fatalf("second query not observed as cache hit: %+v", hit)
	}
	if hit.Detail != nil {
		t.Fatalf("cache hit carries a Detail hook")
	}

	// A pattern query renders its canonicalized itemset, not "*".
	mustQuery(t, eng, itemset.New(eng.table.Load().items[0]), 0.2)
	got = rec.all()
	if p := got[len(got)-1].Pattern; p == "*" || p == "" {
		t.Fatalf("pattern label = %q, want rendered itemset", p)
	}
}

// TestRecorderObservesLoadTime holds the load stage to the loads an
// execution performed: a cold query carries the wall time of its one load,
// nested in its execute stage; the same query over the now resident shard
// carries none.
func TestRecorderObservesLoadTime(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	rec := &captureRecorder{}
	eng, err := NewLazy(idx, Options{Recorder: rec})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	q := itemset.New(tree.Root().Children[0].Item)
	mustQuery(t, eng, q, 0)
	mustQuery(t, eng, q, 0)
	got := rec.all()
	if len(got) != 2 {
		t.Fatalf("observations = %d, want 2", len(got))
	}
	cold, warm := got[0], got[1]
	if cold.LoadedShards != 1 || cold.Load <= 0 || cold.Load > cold.Execute {
		t.Fatalf("cold query: %d loads in %v, execute %v; want 1 load nested in execute", cold.LoadedShards, cold.Load, cold.Execute)
	}
	if warm.LoadedShards != 0 || warm.Load != 0 {
		t.Fatalf("query over a resident shard observed %d loads in %v", warm.LoadedShards, warm.Load)
	}
}

func TestRecorderObservesLoadError(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, dir := writeShardedTestTree(t, tree)
	victim := tree.Root().Children[0].Item
	entry, ok := idx.Entry(victim)
	if !ok {
		t.Fatalf("no manifest entry for %d", victim)
	}
	path := filepath.Join(dir, entry.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	rec := &captureRecorder{}
	eng, err := NewLazy(idx, Options{Recorder: rec})
	if err != nil {
		t.Fatalf("NewLazy: %v", err)
	}
	// One fault, every entry point: each recorded call — Explain is not one —
	// observes the failure exactly once, as an error.
	for name, run := range planEntryPoints(context.Background(), itemset.New(victim), 0.1) {
		before := len(rec.all())
		if err := run(eng); err == nil {
			t.Fatalf("%s over corrupt shard should fail", name)
		}
		got := rec.all()[before:]
		if name == "Explain" {
			if len(got) != 0 {
				t.Fatalf("Explain is unrecorded, yet observed %+v", got)
			}
			continue
		}
		if len(got) != 1 || !got[0].Err {
			t.Fatalf("failed %s not observed as one error: %+v", name, got)
		}
	}
}

// TestStatsRace hammers Stats against concurrent queries and deltas; run
// under -race it checks the documented guarantee that Stats never tears the
// shard table and needs no locks.
func TestStatsRace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nw := randomNetwork(rng, 16, 40, 5, 4)
	eng, err := New(builtIndex(t, nw), Options{CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // queries
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			_, _ = eng.QueryContext(context.Background(), nil, 0.1+float64(i%5)/10)
		}
	}()
	go func() { // deltas
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			d := &delta.Delta{AddTransactions: []delta.VertexTransaction{
				{Vertex: 0, Tx: itemset.New(itemset.Item(i % 5))},
			}}
			if _, err := eng.ApplyDeltaInMemory(nw, d); err != nil {
				t.Errorf("ApplyDeltaInMemory: %v", err)
				return
			}
		}
	}()
	go func() { // stats
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s := eng.Stats()
			if s.Shards != len(s.ShardResidency) {
				t.Errorf("torn snapshot: Shards=%d but %d residency entries", s.Shards, len(s.ShardResidency))
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		eng.Stats()
	}
	close(done)
	wg.Wait()
}

// BenchmarkQueryRecorded measures the recorder's hot-path overhead against
// BenchmarkQueryUnrecorded (acceptance: <5%). The observer is a full
// obs.Observer with a slow-query threshold no benchmark query reaches, so
// the measured cost is the real production path: observation build + two
// histogram observes + counter.
func BenchmarkQueryRecorded(b *testing.B)   { benchmarkQuery(b, true) }
func BenchmarkQueryUnrecorded(b *testing.B) { benchmarkQuery(b, false) }

func benchmarkQuery(b *testing.B, recorded bool) {
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(rng, 48, 160, 8, 4)
	opts := Options{} // no cache: every query executes
	if recorded {
		opts.Recorder = obs.NewObserver(obs.ObserverOptions{SlowThreshold: time.Hour})
	}
	eng, err := New(builtIndex(b, nw), opts)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryContext(context.Background(), nil, 0.3); err != nil {
			b.Fatalf("Query: %v", err)
		}
	}
}

// TestRecorderObservesUpdates: every applied delta reaches the Recorder
// once, labelled with the engine's namespace and carrying the in-memory
// apply time the result reports; a delta Apply refuses reaches it not at
// all.
func TestRecorderObservesUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw := randomNetwork(rng, 14, 34, 5, 3)
	rec := &captureRecorder{}
	eng, err := New(builtIndex(t, nw), Options{Recorder: rec, CacheNamespace: "tenant"})
	if err != nil {
		t.Fatal(err)
	}
	var want []obs.UpdateObservation
	for i := 0; i < 3; i++ {
		res, err := eng.ApplyDeltaInMemory(nw, randomDeltaFor(rng, nw, 5))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, obs.UpdateObservation{Network: "tenant", Duration: res.Duration})
	}
	bad := &delta.Delta{AddEdges: []graph.Edge{{U: 0, V: graph.VertexID(nw.NumVertices() + 5)}}}
	if _, err := eng.ApplyDeltaInMemory(nw, bad); err == nil {
		t.Fatal("a delta with an out-of-range edge was applied")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !slices.Equal(rec.updates, want) {
		t.Fatalf("update observations = %+v, want %+v", rec.updates, want)
	}
	if len(rec.obs) != 0 {
		t.Fatalf("updates produced %d query observations", len(rec.obs))
	}
}
