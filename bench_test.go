package themecomm_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 7), plus ablation benchmarks for the mining design
// choices (README.md, "Reproducing the paper's experiments"). Each benchmark
// regenerates the corresponding
// table/figure on a reduced-scale configuration; cmd/tcbench runs the same
// harness with larger, paper-like settings and prints the rows.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"themecomm"
	"themecomm/internal/core"
	"themecomm/internal/dbnet"
	"themecomm/internal/engine"
	"themecomm/internal/experiments"
	"themecomm/internal/gen"
	"themecomm/internal/sampling"
	"themecomm/internal/tctree"
	"themecomm/internal/truss"
)

// benchConfig is the reduced-scale experiment configuration used by the
// benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Alphas = []float64{0, 0.2, 0.5, 1.0}
	cfg.Epsilons = []float64{0.1, 0.3}
	cfg.MiningSampleEdges = map[string]int{"BK": 300, "GW": 300, "AMINER": 200}
	cfg.EdgeBudgets = []int{100, 300, 800}
	cfg.MaxPatternLength = 3
	cfg.QueryAlphaSteps = 6
	cfg.QueriesPerPoint = 10
	return cfg
}

var (
	benchOnce    sync.Once
	benchBK      *dbnet.Network
	benchBKSmall *dbnet.Network
	benchAM      gen.Dataset
	benchTree    *tctree.Tree
	benchIndex   *tctree.Index
)

// benchSetup generates the shared networks and index once for the micro and
// ablation benchmarks.
func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		bk, err := gen.BK(0.1)
		if err != nil {
			panic(err)
		}
		benchBK = bk.Network
		rng := rand.New(rand.NewSource(7))
		sample, err := sampling.BFS(benchBK, 300, rng)
		if err != nil {
			panic(err)
		}
		benchBKSmall = sample.Network
		benchAM, err = gen.AMiner(0.1)
		if err != nil {
			panic(err)
		}
		benchTree = tctree.Build(benchBK, tctree.BuildOptions{MaxDepth: 3})
		if benchIndex, err = tctree.BuildIndex(benchBK, tctree.BuildOptions{MaxDepth: 3}); err != nil {
			panic(err)
		}
	})
}

// BenchmarkTable2DatasetStats regenerates Table 2 (dataset statistics).
func BenchmarkTable2DatasetStats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(cfg)
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3EffectOfParameters regenerates Figure 3 (effect of α and ε
// on time, NP, NV, NE for TCS, TCFA and TCFI).
func BenchmarkFigure3EffectOfParameters(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(cfg)
		if _, err := s.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Scalability regenerates Figure 4 (runtime and result sizes
// versus the number of BFS-sampled edges).
func BenchmarkFigure4Scalability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(cfg)
		if _, err := s.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Indexing regenerates Table 3 (TC-Tree indexing time, memory
// and node count).
func BenchmarkTable3Indexing(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(cfg)
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5QueryByAlpha regenerates Figures 5(a)-(d) (query-by-alpha
// time and retrieved nodes).
func BenchmarkFigure5QueryByAlpha(b *testing.B) {
	cfg := benchConfig()
	s := experiments.NewSuite(cfg)
	if _, err := s.Table3(); err != nil { // warm the tree cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure5QBA(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5QueryByPattern regenerates Figures 5(e)-(h)
// (query-by-pattern time and retrieved nodes).
func BenchmarkFigure5QueryByPattern(b *testing.B) {
	cfg := benchConfig()
	s := experiments.NewSuite(cfg)
	if _, err := s.Table3(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure5QBP(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudy regenerates the case study of Table 4 / Figure 6.
func BenchmarkCaseStudy(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.15
	s := experiments.NewSuite(cfg)
	if _, err := s.CaseStudy(6); err != nil { // warm dataset and tree caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CaseStudy(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinerTCS benchmarks the TCS baseline on the BK sample (ε = 0.1,
// α = 0), one cell of Figure 3.
func BenchmarkMinerTCS(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TCS(benchBKSmall, core.Options{Alpha: 0, Epsilon: 0.1, MaxPatternLength: 3})
	}
}

// BenchmarkMinerTCFA benchmarks TCFA on the BK sample (α = 0).
func BenchmarkMinerTCFA(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TCFA(benchBKSmall, core.Options{Alpha: 0, MaxPatternLength: 3})
	}
}

// BenchmarkMinerTCFI benchmarks TCFI on the BK sample (α = 0). Comparing with
// BenchmarkMinerTCFA quantifies the gain of the graph-intersection pruning —
// the central comparison of Figures 3 and 4.
func BenchmarkMinerTCFI(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TCFI(benchBKSmall, core.Options{Alpha: 0, MaxPatternLength: 3})
	}
}

// BenchmarkAblationInduceFromFullGraph quantifies the central mining
// ablation: evaluating candidate patterns against the full network (TCFA's strategy)
// versus inside the parents' truss intersection (TCFI's strategy) on the
// co-author analogue.
func BenchmarkAblationInduceFromFullGraph(b *testing.B) {
	benchSetup(b)
	b.Run("full-graph(TCFA)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.TCFA(benchAM.Network, core.Options{Alpha: 0.2, MaxPatternLength: 2})
		}
	})
	b.Run("intersection(TCFI)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.TCFI(benchAM.Network, core.Options{Alpha: 0.2, MaxPatternLength: 2})
		}
	})
}

// BenchmarkAblationTCSEpsilon sweeps the TCS pre-filter threshold ε, the
// accuracy/efficiency trade-off discussed in Section 7.1.
func BenchmarkAblationTCSEpsilon(b *testing.B) {
	benchSetup(b)
	for _, eps := range []float64{0.1, 0.2, 0.3} {
		b.Run(benchName("eps", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TCS(benchBKSmall, core.Options{Alpha: 0, Epsilon: eps, MaxPatternLength: 3})
			}
		})
	}
}

// BenchmarkAblationMinerParallelism compares serial and parallel candidate
// evaluation in TCFI (Options.Parallelism), an implementation extension on
// top of the paper's serial algorithm.
func BenchmarkAblationMinerParallelism(b *testing.B) {
	benchSetup(b)
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", float64(workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TCFI(benchBK, core.Options{Alpha: 0.1, MaxPatternLength: 3, Parallelism: workers})
			}
		})
	}
}

// BenchmarkAblationTreeParallelism compares serial and parallel TC-Tree
// first-level construction (Lines 2-5 of Algorithm 4).
func BenchmarkAblationTreeParallelism(b *testing.B) {
	benchSetup(b)
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", float64(workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tctree.Build(benchBKSmall, tctree.BuildOptions{Parallelism: workers, MaxDepth: 3})
			}
		})
	}
}

// BenchmarkMPTD benchmarks a single Maximal Pattern Truss Detector run
// (Algorithm 1) on a single-item theme network of the BK analogue.
func BenchmarkMPTD(b *testing.B) {
	benchSetup(b)
	items := benchBK.Items()
	if items.Len() == 0 {
		b.Skip("no items")
	}
	tn := benchBK.ThemeNetwork(themecomm.NewItemset(items[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truss.Detect(tn, 0)
	}
}

// BenchmarkDecomposition benchmarks the maximal pattern truss decomposition
// (Theorem 6.1) used by every TC-Tree node.
func BenchmarkDecomposition(b *testing.B) {
	benchSetup(b)
	items := benchBK.Items()
	if items.Len() == 0 {
		b.Skip("no items")
	}
	tn := benchBK.ThemeNetwork(themecomm.NewItemset(items[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truss.Decompose(tn)
	}
}

// benchEngine serves the shared BK index without a result cache, the way
// the Figure 5 experiments query it.
func benchEngine(b *testing.B) *engine.Engine {
	benchSetup(b)
	eng, err := engine.New(benchIndex, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkTreeQueryByAlpha benchmarks a single QBA query against the shared
// BK TC-Tree (one point of Figure 5(a)).
func BenchmarkTreeQueryByAlpha(b *testing.B) {
	eng := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.QueryContext(context.Background(), nil, 0)
	}
}

// BenchmarkTreeQueryByPattern benchmarks a single QBP query against the shared
// BK TC-Tree (one point of Figure 5(e)).
func BenchmarkTreeQueryByPattern(b *testing.B) {
	eng := benchEngine(b)
	rng := rand.New(rand.NewSource(3))
	q, ok, err := experiments.QueryPatternOfLength(context.Background(), eng, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	if !ok {
		b.Skip("tree has no depth-1 patterns")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.QueryContext(context.Background(), q, 0)
	}
}

// fullPattern returns the query pattern containing every indexed top-level
// item of a tree — the heaviest query the index can answer, and the one that
// touches every shard of the engine.
func fullPattern(b *testing.B, tree *tctree.Tree) themecomm.Itemset {
	b.Helper()
	var items []themecomm.Item
	for _, c := range tree.Root().Children {
		items = append(items, c.Item)
	}
	if len(items) < 2 {
		b.Skip("tree has fewer than 2 shards")
	}
	return themecomm.NewItemset(items...)
}

var (
	benchShardOnce  sync.Once
	benchShardTree  *tctree.Tree
	benchShardIndex *tctree.Index
)

// benchShardSetup builds a synthetic multi-item network designed for the
// sharding benchmarks: independent dense blocks of vertices, one item per
// block, so the TC-Tree partitions into balanced shards of equal work.
func benchShardSetup(b *testing.B) {
	b.Helper()
	benchShardOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		const blocks, blockSize = 16, 64
		nw := dbnet.New(blocks * blockSize)
		for blk := 0; blk < blocks; blk++ {
			base := blk * blockSize
			for u := 0; u < blockSize; u++ {
				for v := u + 1; v < blockSize; v++ {
					if rng.Float64() < 0.5 {
						nw.MustAddEdge(themecomm.VertexID(base+u), themecomm.VertexID(base+v))
					}
				}
				if err := nw.AddTransaction(themecomm.VertexID(base+u), themecomm.NewItemset(themecomm.Item(blk))); err != nil {
					panic(err)
				}
			}
		}
		benchShardTree = tctree.Build(nw, tctree.BuildOptions{})
		var err error
		if benchShardIndex, err = tctree.BuildIndex(nw, tctree.BuildOptions{}); err != nil {
			panic(err)
		}
	})
}

// BenchmarkEngineShardedVsSequential compares the single-threaded
// tctree.Query walk with the engine's sharded parallel execution (cache
// disabled, so every iteration traverses the index) on the balanced
// multi-item synthetic network. The "sequential" and "workers=1" rows
// quantify the sharding overhead; the multi-worker rows the parallel
// speedup.
func BenchmarkEngineShardedVsSequential(b *testing.B) {
	benchShardSetup(b)
	q := fullPattern(b, benchShardTree)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchShardTree.Query(q, 0)
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		eng, err := engine.New(benchShardIndex, engine.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("sharded-workers", float64(workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.QueryContext(context.Background(), q, 0)
			}
		})
	}
}

// BenchmarkEngineCacheColdVsWarm measures the repeated-workload speedup of
// the LRU result cache: "cold" executes the sharded traversal every
// iteration (cache disabled), "warm" serves every iteration from the cache
// after one warming query.
func BenchmarkEngineCacheColdVsWarm(b *testing.B) {
	benchSetup(b)
	q := fullPattern(b, benchTree)
	cold, err := engine.New(benchIndex, engine.Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold.QueryContext(context.Background(), q, 0.1)
		}
	})
	warm, err := engine.New(benchIndex, engine.Options{Workers: 4, CacheSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	warm.QueryContext(context.Background(), q, 0.1)
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			warm.QueryContext(context.Background(), q, 0.1)
		}
	})
}

// BenchmarkEngineBatch compares answering a mixed workload one query at a
// time against a single QueryBatchContext call (cache disabled, so the benchmark
// measures execution, not caching).
func BenchmarkEngineBatch(b *testing.B) {
	benchShardSetup(b)
	full := fullPattern(b, benchShardTree)
	var reqs []engine.Request
	for _, it := range full {
		reqs = append(reqs, engine.Request{Pattern: themecomm.NewItemset(it), Alpha: 0})
	}
	reqs = append(reqs,
		engine.Request{Pattern: full, Alpha: 0},
		engine.Request{Alpha: 0.2},
		engine.Request{Alpha: 0.5},
	)
	eng, err := engine.New(benchShardIndex, engine.Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("one-by-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				eng.QueryContext(context.Background(), r.Pattern, r.Alpha)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.QueryBatchContext(context.Background(), reqs)
		}
	})
}

// BenchmarkEngineColdStartFullVsLazy measures time-to-first-answer from a
// cold process: reading the index from disk and answering one single-item
// query. "full-load" materializes every shard into a heap tree before the
// first answer; "lazy-load" opens only the manifest and maps the one shard
// the query touches, so its cold start is proportional to the hot set, not
// the index size.
func BenchmarkEngineColdStartFullVsLazy(b *testing.B) {
	benchShardSetup(b)
	shardDir := filepath.Join(b.TempDir(), "bench.index")
	if _, err := benchShardIndex.Write(shardDir); err != nil {
		b.Fatal(err)
	}
	q := themecomm.NewItemset(benchShardTree.Root().Children[0].Item)
	b.Run("full-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := tctree.OpenSharded(shardDir)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := idx.LoadTree()
			if err != nil {
				b.Fatal(err)
			}
			tree.Query(q, 0)
		}
	})
	b.Run("lazy-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := tctree.OpenSharded(shardDir)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := engine.NewLazy(idx, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.QueryContext(context.Background(), q, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v float64) string {
	if v == float64(int(v)) {
		return fmt.Sprintf("%s=%d", prefix, int(v))
	}
	return fmt.Sprintf("%s=%.1f", prefix, v)
}
