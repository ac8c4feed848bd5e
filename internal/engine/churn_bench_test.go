package engine

import (
	"context"
	"math/rand"
	"testing"

	"themecomm/internal/itemset"
)

// BenchmarkLazyChurn is the shard-load path in-process: query-by-pattern
// drawn uniformly from the indexed patterns of length 1–4 (up to 2,000 of
// each), each at its own α in [0, 0.5), over a lazy engine on AMINER 0.5 that
// keeps at most 32 of its 148 shards resident and caches no answer — the
// served lazy-churn workload without HTTP. Most queries load a shard and
// evict another; loads/op says how many.
func BenchmarkLazyChurn(b *testing.B) {
	eng, _ := lazyAMinerEngine(b, 0.5, Options{MaxResidentShards: 32})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	var pool []itemset.Itemset
	for depth := 1; depth <= 4; depth++ {
		ps, err := eng.PatternsAtDepth(ctx, depth)
		if err != nil {
			b.Fatal(err)
		}
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		pool = append(pool, ps[:min(len(ps), 2000)]...)
	}
	reqs := make([]Request, 4096)
	for i := range reqs {
		reqs[i] = Request{Pattern: pool[rng.Intn(len(pool))], Alpha: 0.5 * rng.Float64()}
	}
	query := func(i int) {
		r := reqs[i%len(reqs)]
		if _, err := eng.QueryContext(ctx, r.Pattern, r.Alpha); err != nil {
			b.Fatal(err)
		}
	}
	// Fill the budget first, so every timed query meets the steady state.
	for i := 0; i < 500; i++ {
		query(len(reqs) - 1 - i)
	}
	loads := eng.Stats().LazyLoads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Stats().LazyLoads-loads)/float64(b.N), "loads/op")
}
