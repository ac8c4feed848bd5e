// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section 7) on the generated dataset analogues:
//
//	Table 2   — dataset statistics
//	Figure 3  — effect of the cohesion threshold α and the TCS frequency
//	            threshold ε on time, NP, NV and NE
//	Figure 4  — scalability of TCS, TCFA and TCFI with the number of sampled
//	            edges
//	Table 3   — TC-Tree indexing time, memory and node count
//	Figure 5  — TC-Tree query time and retrieved nodes, by α (QBA) and by
//	            query pattern length (QBP)
//	Table 4 / Figure 6 — case study of named theme communities in the
//	            co-author network
//
// The absolute numbers differ from the paper (the datasets are synthetic
// analogues and the hardware differs), but the harness preserves the shapes
// the paper reports; see README.md ("Reproducing the paper's experiments").
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"

	"themecomm/internal/dbnet"
	"themecomm/internal/engine"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/sampling"
	"themecomm/internal/tctree"
)

// Config controls the dataset scale and the parameter grids of the
// experiments. The zero value is not useful; start from DefaultConfig.
type Config struct {
	// Scale is the dataset scale factor (1 = the generators' defaults).
	Scale gen.Scale
	// Seed seeds the samplers and query generators.
	Seed int64
	// Alphas is the grid of cohesion thresholds used by Figure 3.
	Alphas []float64
	// Epsilons is the grid of TCS frequency thresholds used by Figure 3.
	Epsilons []float64
	// MiningSampleEdges is the BFS sample size (in edges) used by Figure 3
	// for each dataset; the paper uses 10,000 edges for BK and GW and 5,000
	// for AMINER.
	MiningSampleEdges map[string]int
	// EdgeBudgets is the series of sample sizes used by Figure 4.
	EdgeBudgets []int
	// MaxPatternLength caps the pattern length for every miner so the
	// exhaustive baselines stay tractable; it applies equally to all methods.
	MaxPatternLength int
	// QueryAlphaSteps is the number of α_q values probed by Figure 5 (QBA).
	QueryAlphaSteps int
	// QueriesPerPoint is the number of repetitions averaged per query point.
	QueriesPerPoint int
	// CaseStudyAlpha is the cohesion threshold of the case study.
	CaseStudyAlpha float64
	// TreeParallelism is the worker count of the TC-Tree first level.
	TreeParallelism int
}

// DefaultConfig returns a laptop/CI-friendly configuration. The command-line
// harness (cmd/tcbench) exposes flags to raise the scale towards the paper's
// settings.
func DefaultConfig() Config {
	return Config{
		Scale:    0.25,
		Seed:     42,
		Alphas:   []float64{0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0},
		Epsilons: []float64{0.1, 0.2, 0.3},
		MiningSampleEdges: map[string]int{
			"BK":     1000,
			"GW":     1000,
			"AMINER": 500,
		},
		EdgeBudgets:      []int{100, 300, 1000, 3000},
		MaxPatternLength: 4,
		QueryAlphaSteps:  8,
		QueriesPerPoint:  20,
		CaseStudyAlpha:   0.1,
		TreeParallelism:  0,
	}
}

// Suite generates and caches the dataset analogues, their BFS samples and
// their TC-Tree indexes so that the individual experiments can share them.
type Suite struct {
	Config   Config
	rng      *rand.Rand
	datasets map[string]gen.Dataset
	samples  map[string]*sampling.Sample
	indexes  map[string]*tctree.Index
	// fed serves the query experiments: each dataset's index is attached on
	// first use, under the dataset's name.
	fed *federation.Federation
}

// NewSuite returns a suite with the given configuration.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		Config:   cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		datasets: make(map[string]gen.Dataset),
		samples:  make(map[string]*sampling.Sample),
		indexes:  make(map[string]*tctree.Index),
		fed:      federation.New(federation.Options{CacheSize: 0}),
	}
}

// MiningDatasets lists the datasets used by the mining experiments
// (Figures 3 and 4), in the paper's order.
func MiningDatasets() []string { return []string{"BK", "GW", "AMINER"} }

// AllDatasets lists every dataset analogue, in the paper's order.
func AllDatasets() []string { return []string{"BK", "GW", "AMINER", "SYN"} }

// Dataset returns the generated dataset analogue, generating it on first use.
func (s *Suite) Dataset(name string) (gen.Dataset, error) {
	if d, ok := s.datasets[name]; ok {
		return d, nil
	}
	d, err := gen.ByName(name, s.Config.Scale)
	if err != nil {
		return gen.Dataset{}, err
	}
	s.datasets[name] = d
	return d, nil
}

// MiningSample returns the BFS sample of the dataset used by the Figure 3
// experiment, generating it on first use.
func (s *Suite) MiningSample(name string) (*sampling.Sample, error) {
	if sm, ok := s.samples[name]; ok {
		return sm, nil
	}
	d, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	budget, ok := s.Config.MiningSampleEdges[name]
	if !ok || budget <= 0 || budget > d.Network.NumEdges() {
		budget = d.Network.NumEdges()
	}
	sm, err := sampling.BFS(d.Network, budget, s.rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: sampling %s: %w", name, err)
	}
	s.samples[name] = sm
	return sm, nil
}

// buildOptions is the configured build of the suite's indexes.
func (s *Suite) buildOptions() tctree.BuildOptions {
	return tctree.BuildOptions{Parallelism: s.Config.TreeParallelism, MaxDepth: s.Config.MaxPatternLength}
}

// Index returns the TC-Tree index of the dataset, building it on first use
// (Table3 builds it too, measured).
func (s *Suite) Index(name string) (*tctree.Index, error) {
	if idx, ok := s.indexes[name]; ok {
		return idx, nil
	}
	d, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	idx, err := tctree.BuildIndex(d.Network, s.buildOptions())
	if err != nil {
		return nil, err
	}
	s.indexes[name] = idx
	return idx, nil
}

// Engine returns the query-serving engine over the dataset's index,
// building both on first use. The query experiments (Figure 5, case study)
// run through it so the reported numbers reflect the served plan→execute
// path: the index is attached to the suite's federation, whose result cache
// is disabled — repetitions must measure execution, not cache hits.
func (s *Suite) Engine(name string) (*engine.Engine, error) {
	if n, ok := s.fed.Network(name); ok {
		return n.Engine(), nil
	}
	idx, err := s.Index(name)
	if err != nil {
		return nil, err
	}
	if err := s.fed.AttachBuilt(name, idx, federation.NetworkOptions{}); err != nil {
		return nil, fmt.Errorf("experiments: engine for %s: %w", name, err)
	}
	n, _ := s.fed.Network(name)
	return n.Engine(), nil
}

// network is a small helper for experiments that only need the network.
func (s *Suite) network(name string) (*dbnet.Network, error) {
	d, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	return d.Network, nil
}

// heapAllocMB returns the live heap size in MiB after a garbage collection.
// It approximates the "Memory" column of Table 3.
func heapAllocMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
