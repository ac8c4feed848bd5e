package experiments

import (
	"context"
	"math/rand"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/engine"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// Table3Row is one row of Table 3: the TC-Tree indexing performance on one
// dataset.
type Table3Row struct {
	Dataset         string
	IndexingSeconds float64
	// MemoryMB is the live heap the built index holds (MeasureBuild).
	MemoryMB float64
	// IndexMB is the size of the index: its shard payloads summed.
	IndexMB float64
	Nodes   int
}

// Table3 regenerates Table 3: TC-Tree indexing time, memory footprint, index
// size and node count on every dataset analogue. The built index is the one
// the suite's query experiments serve (Suite.Engine).
func (s *Suite) Table3() ([]Table3Row, error) {
	var out []Table3Row
	for _, name := range AllDatasets() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		idx, elapsed, mem, err := MeasureBuild(d.Network, s.buildOptions())
		if err != nil {
			return nil, err
		}
		s.indexes[name] = idx
		out = append(out, Table3Row{
			Dataset:         name,
			IndexingSeconds: elapsed.Seconds(),
			MemoryMB:        mem,
			IndexMB:         float64(idx.SizeBytes()) / (1 << 20),
			Nodes:           idx.NumNodes(),
		})
	}
	return out, nil
}

// MeasureBuild builds the index of nw (tctree.BuildIndex) and reports the two
// costs Table 3 gives for it: the build's wall time, and its memory — the
// live heap the built index holds: the live heap after a garbage collection,
// minus the live heap before the build.
func MeasureBuild(nw *dbnet.Network, opts tctree.BuildOptions) (*tctree.Index, time.Duration, float64, error) {
	before := heapAllocMB()
	start := time.Now()
	idx, err := tctree.BuildIndex(nw, opts)
	elapsed := time.Since(start)
	return idx, elapsed, heapAllocMB() - before, err
}

// Figure5Row is one data point of Figure 5: the average query time and number
// of retrieved nodes for one query setting on one dataset.
type Figure5Row struct {
	Dataset        string
	Workload       string // "QBA" or "QBP"
	AlphaQ         float64
	PatternLength  int
	QuerySeconds   float64
	RetrievedNodes int
}

// Figure5QBA regenerates Figures 5(a)-(d): query-by-alpha performance on the
// served plan→execute path (Suite.Engine). The query pattern is the full
// item universe and α_q sweeps QueryAlphaSteps evenly spaced thresholds from
// 0 up to, but not including, the index's largest threshold α* — at α* itself
// every truss is empty and nothing is retrieved.
func (s *Suite) Figure5QBA() ([]Figure5Row, error) {
	var out []Figure5Row
	for _, name := range AllDatasets() {
		eng, err := s.Engine(name)
		if err != nil {
			return nil, err
		}
		maxAlpha := eng.MaxAlpha()
		steps := s.Config.QueryAlphaSteps
		if steps < 2 {
			steps = 2
		}
		for i := 0; i < steps; i++ {
			alphaQ := maxAlpha * float64(i) / float64(steps)
			var total time.Duration
			retrieved := 0
			reps := s.Config.QueriesPerPoint
			if reps < 1 {
				reps = 1
			}
			for r := 0; r < reps; r++ {
				qr, err := eng.QueryContext(context.Background(), nil, alphaQ)
				if err != nil {
					return nil, err
				}
				total += qr.Duration
				retrieved = qr.RetrievedNodes
			}
			out = append(out, Figure5Row{
				Dataset:        name,
				Workload:       "QBA",
				AlphaQ:         alphaQ,
				QuerySeconds:   total.Seconds() / float64(reps),
				RetrievedNodes: retrieved,
			})
		}
	}
	return out, nil
}

// Figure5QBP regenerates Figures 5(e)-(h): query-by-pattern performance on
// the served plan→execute path (Suite.Engine). For every indexed pattern
// length, query patterns are sampled from the index's patterns of that
// length and queried with α_q = 0.
func (s *Suite) Figure5QBP(ctx context.Context) ([]Figure5Row, error) {
	rng := rand.New(rand.NewSource(s.Config.Seed + 1))
	var out []Figure5Row
	for _, name := range AllDatasets() {
		eng, err := s.Engine(name)
		if err != nil {
			return nil, err
		}
		for length := 1; length <= eng.Depth(); length++ {
			patterns, err := eng.PatternsAtDepth(ctx, length)
			if err != nil {
				return nil, err
			}
			if len(patterns) == 0 {
				continue
			}
			reps := s.Config.QueriesPerPoint
			if reps < 1 {
				reps = 1
			}
			var total time.Duration
			totalRetrieved := 0
			for r := 0; r < reps; r++ {
				q := patterns[rng.Intn(len(patterns))]
				qr, err := eng.QueryContext(ctx, q, 0)
				if err != nil {
					return nil, err
				}
				total += qr.Duration
				totalRetrieved += qr.RetrievedNodes
			}
			out = append(out, Figure5Row{
				Dataset:        name,
				Workload:       "QBP",
				PatternLength:  length,
				QuerySeconds:   total.Seconds() / float64(reps),
				RetrievedNodes: totalRetrieved / reps,
			})
		}
	}
	return out, nil
}

// CaseStudyCommunity is one named theme community of the case study
// (Table 4 / Figure 6): a set of collaborating authors and the keyword theme
// they share.
type CaseStudyCommunity struct {
	Theme   []string
	Authors []string
}

// CaseStudy regenerates the case study of Section 7.4 on the co-author
// analogue: it queries the AMINER TC-Tree (through the serving engine) at
// the configured α, keeps the communities whose themes contain at least two
// keywords, and reports the author names and keyword themes of the largest
// ones.
func (s *Suite) CaseStudy(maxCommunities int) ([]CaseStudyCommunity, error) {
	d, err := s.Dataset("AMINER")
	if err != nil {
		return nil, err
	}
	eng, err := s.Engine("AMINER")
	if err != nil {
		return nil, err
	}
	qr, err := eng.QueryContext(context.Background(), nil, s.Config.CaseStudyAlpha)
	if err != nil {
		return nil, err
	}
	var out []CaseStudyCommunity
	for _, c := range qr.Communities {
		if c.Pattern.Len() < 2 {
			continue
		}
		theme := d.Dictionary.Names(c.Pattern)
		var authors []string
		for _, v := range c.Vertices {
			if int(v) < len(d.AuthorNames) {
				authors = append(authors, d.AuthorNames[v])
			}
		}
		out = append(out, CaseStudyCommunity{Theme: theme, Authors: authors})
	}
	// Largest communities first, to mirror the presentation of Figure 6.
	sortCaseStudy(out)
	if maxCommunities > 0 && len(out) > maxCommunities {
		out = out[:maxCommunities]
	}
	return out, nil
}

func sortCaseStudy(cs []CaseStudyCommunity) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && score(cs[j]) > score(cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// score ranks case-study communities: longer themes first, then more authors.
func score(c CaseStudyCommunity) int { return 1000*len(c.Theme) + len(c.Authors) }

// QueryPatternOfLength samples one indexed pattern of the given length from
// an engine's index; it is exported for the query benchmarks.
func QueryPatternOfLength(ctx context.Context, eng *engine.Engine, length int, rng *rand.Rand) (itemset.Itemset, bool, error) {
	patterns, err := eng.PatternsAtDepth(ctx, length)
	if err != nil || len(patterns) == 0 {
		return nil, false, err
	}
	return patterns[rng.Intn(len(patterns))], true, nil
}
