package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// This file proves the streaming executor against the materializing one.
// TestStreamPropertyParity is the central property harness: across hundreds
// of generated (network, pattern, α, k, engine-mode) cases, the streamed
// answer must be byte-identical — order included — to the materialized one.
// The remaining tests pin the claims parity alone cannot: top-k early
// termination provably skips shard loads (ShardsShortCircuited > 0), and a
// stream crossed by an update either fails cleanly (lazy) or completes from
// its pre-delta snapshot (eager) — never mixing epochs.

// drainStream pulls the stream to exhaustion.
func drainStream(t *testing.T, st *Stream) []truss.Community {
	t.Helper()
	var out []truss.Community
	for {
		rc, err := st.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if rc == nil {
			return out
		}
		out = append(out, *rc)
	}
}

// assertPlainParity compares a drained StreamQuery answer against the
// materializing Query answer: same records, same order, same traversal
// counters.
func assertPlainParity(t *testing.T, got []truss.Community, stats StreamStats, want *Answer) {
	t.Helper()
	assertEqualCommunities(t, got, want.Communities)
	if stats.RetrievedNodes != want.RetrievedNodes || stats.VisitedNodes != want.VisitedNodes {
		t.Fatalf("stream counters retrieved=%d visited=%d, materialized retrieved=%d visited=%d",
			stats.RetrievedNodes, stats.VisitedNodes, want.RetrievedNodes, want.VisitedNodes)
	}
}

// TestStreamPropertyParity is the property-based parity harness: random
// networks, random patterns, random thresholds and ks, eager and lazy
// engines — the streamed answer must equal the materialized answer byte for
// byte, order included, in well over 100 generated cases.
func TestStreamPropertyParity(t *testing.T) {
	cases := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		nw := randomNetwork(rng, 14, 36, 5, 3)
		tree := tctree.Build(nw, tctree.BuildOptions{})
		if tree.NumNodes() == 0 {
			continue
		}
		full := make(itemset.Itemset, 0, len(tree.Root().Children))
		for _, c := range tree.Root().Children {
			full = append(full, c.Item)
		}

		// Random query mix: every item, single shards, random subsets, and a
		// pattern with an unindexed item.
		queries := []itemset.Itemset{nil, itemset.New(full[rng.Intn(len(full))], 999)}
		for trial := 0; trial < 3; trial++ {
			var q itemset.Itemset
			for _, it := range full {
				if rng.Intn(2) == 0 {
					q = q.Add(it)
				}
			}
			queries = append(queries, q)
		}
		alphas := []float64{0, rng.Float64() * treeMaxAlpha(tree), treeMaxAlpha(tree) + 1}
		ks := []int{0, 1, 1 + rng.Intn(6)}

		idx, _ := writeShardedTestTree(t, tree)
		eager, err := New(builtIndex(t, nw), Options{Workers: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		lazy, err := NewLazy(idx, Options{Workers: 2, MaxResidentShards: 2})
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}

		for _, eng := range []*Engine{eager, lazy} {
			for _, q := range queries {
				for _, alpha := range alphas {
					// Plain: stream order must equal Query order.
					want := mustQuery(t, eng, q, alpha)
					st, err := eng.StreamQuery(context.Background(), q, alpha)
					if err != nil {
						t.Fatalf("StreamQuery: %v", err)
					}
					got := drainStream(t, st)
					stats := st.Stats()
					st.Close()
					assertPlainParity(t, got, stats, want)
					cases++

					// Ranked: stream order must equal the top-k order for every k.
					for _, k := range ks {
						_, wantRanked, err := eng.TopKWithResultContext(context.Background(), q, alpha, k)
						if err != nil {
							t.Fatalf("TopKWithResult: %v", err)
						}
						rst, err := eng.StreamTopK(context.Background(), q, alpha, k)
						if err != nil {
							t.Fatalf("StreamTopK: %v", err)
						}
						gotRanked := drainStream(t, rst)
						rst.Close()
						assertEqualCommunities(t, gotRanked, wantRanked)
						cases++
					}
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("property harness exercised only %d cases, want at least 100", cases)
	}
	t.Logf("streaming/materializing parity held across %d generated cases", cases)
}

// TestStreamTopKShortCircuits is the early-termination proof: a selective
// top-k stream must leave shards unopened — never loaded from disk on a lazy
// engine — and account for them in ShardsShortCircuited, both on the stream
// and on the engine's counters.
func TestStreamTopKShortCircuits(t *testing.T) {
	// Scan a few generated networks for one whose shard α* bounds actually
	// spread (all-equal bounds force a k=1 stream to open everything).
	for seed := int64(1); seed <= 20; seed++ {
		tree := buildTestTree(t, seed)
		idx, _ := writeShardedTestTree(t, tree)
		eng, err := NewLazy(idx, Options{})
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}
		st, err := eng.StreamTopK(context.Background(), nil, 0, 1)
		if err != nil {
			t.Fatalf("StreamTopK: %v", err)
		}
		got := drainStream(t, st)
		st.Close()
		stats := st.Stats()
		if stats.ShardsShortCircuited == 0 {
			continue
		}

		// Found a selective case: pin every accounting consequence.
		if len(got) != 1 {
			t.Fatalf("k=1 stream emitted %d communities", len(got))
		}
		if stats.ShardsOpened+stats.ShardsShortCircuited != stats.ShardsPlanned {
			t.Fatalf("opened %d + short-circuited %d != planned %d",
				stats.ShardsOpened, stats.ShardsShortCircuited, stats.ShardsPlanned)
		}
		if stats.Loads != stats.ShardsOpened {
			t.Fatalf("cold lazy engine loaded %d shards but opened %d", stats.Loads, stats.ShardsOpened)
		}
		if stats.Loads >= stats.ShardsPlanned {
			t.Fatalf("every planned shard was loaded; early termination saved nothing")
		}
		es := eng.Stats()
		if es.ShardsShortCircuited != uint64(stats.ShardsShortCircuited) {
			t.Fatalf("engine ShardsShortCircuited = %d, stream says %d",
				es.ShardsShortCircuited, stats.ShardsShortCircuited)
		}
		if es.Streams != 1 {
			t.Fatalf("engine Streams = %d, want 1", es.Streams)
		}
		if es.LazyLoads != uint64(stats.Loads) {
			t.Fatalf("engine LazyLoads = %d, stream loaded %d", es.LazyLoads, stats.Loads)
		}

		// The full ranking must still agree with the materializing path on
		// what the single best community is.
		_, ranked, err := eng.TopKWithResultContext(context.Background(), nil, 0, 1)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		if len(ranked) != 1 || ranked[0].Cohesion != got[0].Cohesion ||
			!ranked[0].Pattern.Equal(got[0].Pattern) {
			t.Fatalf("short-circuited answer differs from materialized top-1")
		}
		return
	}
	t.Fatalf("no seed in 1..20 produced a short-circuiting top-k stream")
}

// TestStreamMidDeltaLazy: a lazy stream crossed by an update must fail with
// ErrEpochChanged at its next shard open — post-delta shard files must never
// leak into a pre-delta answer.
func TestStreamMidDeltaLazy(t *testing.T) {
	const items = 5
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng, 14, 34, items, 3)
		tree := tctree.Build(nw, tctree.BuildOptions{})
		if tree.NumNodes() == 0 || len(tree.Root().Children) < 2 {
			continue
		}
		idx, _ := writeShardedTestTree(t, tree)
		eng, err := NewLazy(idx, Options{})
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}

		st, err := eng.StreamQuery(context.Background(), nil, 0)
		if err != nil {
			t.Fatalf("StreamQuery: %v", err)
		}
		defer st.Close()
		if st.Stats().ShardsPlanned < 2 {
			continue // one open answers everything; no mid-stream open to poison
		}
		// First pull opens the first shard; later shards are still pending.
		if _, err := st.Next(); err != nil {
			t.Fatalf("first Next: %v", err)
		}

		// The swap must not block on the open stream (streams do not hold the
		// update lock between pulls).
		applyDelta(t, eng, nw, randomDeltaFor(rng, nw, items))

		for {
			rc, err := st.Next()
			if err != nil {
				if !errors.Is(err, ErrEpochChanged) {
					t.Fatalf("mid-delta stream failed with %v, want ErrEpochChanged", err)
				}
				// Poisoned: every later pull repeats the failure.
				if _, again := st.Next(); !errors.Is(again, ErrEpochChanged) {
					t.Fatalf("poisoned stream returned %v on re-pull", again)
				}
				// The shards a failed stream never reached were not proven
				// anything: they are not short-circuits.
				st.Close()
				if got := st.Stats().ShardsShortCircuited; got != 0 {
					t.Fatalf("failed stream reports %d short-circuited shards", got)
				}
				if got := eng.Stats().ShardsShortCircuited; got != 0 {
					t.Fatalf("failed stream credited %d short-circuited shards to the engine", got)
				}
				return
			}
			if rc == nil {
				t.Fatalf("lazy stream drained to completion across an epoch swap")
			}
		}
	}
	t.Fatalf("no seed in 1..8 produced a multi-shard lazy stream")
}

// TestStreamMidDeltaEager: an eager stream crossed by an update completes
// from its pre-delta snapshot — the captured subtrees are immutable — and
// the drained answer equals the answer materialized before the delta.
func TestStreamMidDeltaEager(t *testing.T) {
	const items = 5
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(rng, 14, 34, items, 3)
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		t.Fatal("empty tree; pick another seed")
	}
	eng, err := New(builtIndex(t, nw), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	preDelta := mustQueryByAlpha(t, eng, 0)
	st, err := eng.StreamQuery(context.Background(), nil, 0)
	if err != nil {
		t.Fatalf("StreamQuery: %v", err)
	}
	defer st.Close()
	first, err := st.Next()
	if err != nil || first == nil {
		t.Fatalf("first Next = (%v, %v), want a community", first, err)
	}

	applyDelta(t, eng, nw, randomDeltaFor(rng, nw, items))

	rest := drainStream(t, st)
	got := append([]truss.Community{*first}, rest...)
	stats := st.Stats()
	assertPlainParity(t, got, stats, preDelta)
	if stats.Epoch == eng.IndexEpoch() {
		t.Fatalf("delta did not move the epoch; the test proved nothing")
	}

	// A stream opened after the swap serves the new index.
	post, err := eng.StreamQuery(context.Background(), nil, 0)
	if err != nil {
		t.Fatalf("post-delta StreamQuery: %v", err)
	}
	defer post.Close()
	assertPlainParity(t, drainStream(t, post), post.Stats(), mustQueryByAlpha(t, eng, 0))
}

// TestCancellationStopsOpeningShards: every way of executing a plan goes
// through one open routine, and that routine gives up on a done context. The
// context is cancelled from inside the first shard load of an all-items
// query on a cold lazy engine. With one worker the first shard is answered
// and no other is opened; with several, the opens already holding a slot
// finish and the ones waiting for one give up (how many is a race, so only
// the outcome is pinned). Either way the failure is observed as an error,
// nothing is cached, and the engine answers the next, uncancelled query in
// full. Explain is unobserved, so its cancellation records no observation.
func TestCancellationStopsOpeningShards(t *testing.T) {
	tree := buildTestTree(t, 11)
	idx, _ := writeShardedTestTree(t, tree)
	for _, name := range []string{"Query", "QueryContaining", "Explain", "StreamQuery", "StreamTopK", "TopK"} {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			run := planEntryPoints(ctx, nil, 0)[name]
			rec := &captureRecorder{}
			eng, err := NewLazy(idx, Options{Workers: workers, CacheSize: 4, Recorder: rec})
			if err != nil {
				t.Fatalf("NewLazy: %v", err)
			}
			shards := eng.table.Load().shards
			if len(shards) < 3 {
				t.Fatalf("need at least 3 shards, have %d", len(shards))
			}
			for _, s := range shards {
				load := s.load
				s.load = func() (*tctree.BinShard, error) {
					cancel()
					return load()
				}
			}
			if err := run(eng); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s/%d workers under a cancelled context returned %v, want context.Canceled", name, workers, err)
			}
			st := eng.Stats()
			if workers == 1 && st.LazyLoads != 1 {
				t.Fatalf("%s: %d shards loaded, want only the one whose load cancelled the context (of %d)", name, st.LazyLoads, len(shards))
			}
			if st.Cache.Length != 0 || st.ShardsShortCircuited != 0 {
				t.Fatalf("%s/%d workers: cancelled execution cached %d answers, credited %d short-circuits", name, workers, st.Cache.Length, st.ShardsShortCircuited)
			}
			switch got := rec.all(); {
			case name == "Explain" && len(got) != 0:
				t.Fatalf("Explain/%d workers: cancelled explain observed as %+v, want nothing", workers, got)
			case name != "Explain" && (len(got) != 1 || !got[0].Err):
				t.Fatalf("%s/%d workers: cancelled execution observed as %+v, want one error", name, workers, got)
			}
			assertSameAnswer(t, mustQueryByAlpha(t, eng, 0), tree.QueryByAlpha(0))
		}
	}
}

// TestStreamRecorderObservation: closing an observed stream emits one
// QueryObservation with the stream stage filled and the short-circuit tally.
func TestStreamRecorderObservation(t *testing.T) {
	rec := &captureRecorder{}
	eng, err := New(testIndex(t, 7), Options{Recorder: rec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := eng.StreamTopK(context.Background(), nil, 0, 1)
	if err != nil {
		t.Fatalf("StreamTopK: %v", err)
	}
	drainStream(t, st)
	st.Close()
	st.Close() // idempotent: must not double-record

	got := rec.all()
	if len(got) != 1 {
		t.Fatalf("observations = %d, want 1", len(got))
	}
	o := got[0]
	if o.Pattern != "*" || o.Err {
		t.Fatalf("observation identity = %+v", o)
	}
	if o.Stream <= 0 || o.Total < o.Stream {
		t.Fatalf("stream stage = %v (total %v), want positive and within total", o.Stream, o.Total)
	}
	if o.ShortCircuited != st.Stats().ShardsShortCircuited {
		t.Fatalf("observed ShortCircuited = %d, stream says %d", o.ShortCircuited, st.Stats().ShardsShortCircuited)
	}
}

// TestStreamResultCacheBypass: streams neither read nor write the result
// cache.
func TestStreamResultCacheBypass(t *testing.T) {
	eng, err := New(testIndex(t, 7), Options{CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustQueryByAlpha(t, eng, 0) // populate the cache
	st, err := eng.StreamQuery(context.Background(), nil, 0)
	if err != nil {
		t.Fatalf("StreamQuery: %v", err)
	}
	drainStream(t, st)
	st.Close()
	stats := eng.Stats()
	if stats.Cache.Hits != 0 || stats.Cache.Misses != 1 || stats.Cache.Length != 1 {
		t.Fatalf("stream touched the result cache: %+v", stats.Cache)
	}
}

// TestStreamNextAfterClose: a closed stream errors on Next rather than
// yielding communities of an execution it already accounted for, and a
// second Close is harmless.
func TestStreamNextAfterClose(t *testing.T) {
	eng, err := New(testIndex(t, 7), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := eng.StreamQuery(context.Background(), nil, 0)
	if err != nil {
		t.Fatalf("StreamQuery: %v", err)
	}
	st.Close()
	st.Close()
	if rc, err := st.Next(); err == nil {
		t.Fatalf("Next on a closed stream = (%v, nil), want an error", rc)
	}
}

// BenchmarkStreamTopK compares the ranked execution against the reference
// path on a cold lazy engine: the reference materializes the full answer and
// ranks it (bestK over QueryContext), the streaming arm pulls StreamTopK —
// which prunes shards and subtrees by their α* bound — and must load and
// retrieve less. Each iteration opens a fresh engine over one shared on-disk
// index so every run starts cold; shard-loads/op and retrieved-nodes/op are
// reported alongside the allocator counters.
func BenchmarkStreamTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	nw := randomNetwork(rng, 40, 160, 8, 4)
	tree := tctree.Build(nw, tctree.BuildOptions{})
	if tree.NumNodes() == 0 {
		b.Fatal("empty benchmark tree")
	}
	dir := b.TempDir()
	if _, err := tree.WriteShardedAs(dir, tctree.FormatTCBIN); err != nil {
		b.Fatalf("WriteShardedAs: %v", err)
	}
	idx, err := tctree.OpenSharded(dir)
	if err != nil {
		b.Fatalf("OpenSharded: %v", err)
	}
	const k = 3

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		loads, retrieved := 0, 0
		for i := 0; i < b.N; i++ {
			eng, err := NewLazy(idx, Options{})
			if err != nil {
				b.Fatalf("NewLazy: %v", err)
			}
			res, err := eng.QueryContext(context.Background(), nil, 0)
			if err != nil {
				b.Fatalf("QueryContext: %v", err)
			}
			bestK(res.Communities, k)
			loads += int(eng.Stats().LazyLoads)
			retrieved += res.RetrievedNodes
		}
		b.ReportMetric(float64(loads)/float64(b.N), "shard-loads/op")
		b.ReportMetric(float64(retrieved)/float64(b.N), "retrieved-nodes/op")
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		loads, retrieved := 0, 0
		for i := 0; i < b.N; i++ {
			eng, err := NewLazy(idx, Options{})
			if err != nil {
				b.Fatalf("NewLazy: %v", err)
			}
			st, err := eng.StreamTopK(context.Background(), nil, 0, k)
			if err != nil {
				b.Fatalf("StreamTopK: %v", err)
			}
			for {
				rc, err := st.Next()
				if err != nil {
					b.Fatalf("Next: %v", err)
				}
				if rc == nil {
					break
				}
			}
			st.Close()
			loads += st.Stats().Loads
			retrieved += st.Stats().RetrievedNodes
		}
		b.ReportMetric(float64(loads)/float64(b.N), "shard-loads/op")
		b.ReportMetric(float64(retrieved)/float64(b.N), "retrieved-nodes/op")
	})
}
