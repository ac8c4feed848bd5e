package core

import (
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/fpm"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/par"
	"themecomm/internal/truss"
)

// TCS is the Theme Community Scanner baseline of Section 4.2. It enumerates
// the candidate patterns P = {p | ∃ v_i : f_i(p) > ε} by mining every vertex
// database with the frequency threshold ε, induces the theme network of each
// candidate from the full database network and runs MPTD on it.
//
// TCS trades accuracy for efficiency: a pattern whose frequency is at most ε
// on every vertex can still form a maximal pattern truss (if many such
// vertices are densely connected), and TCS will miss it. With ε = 0 TCS is
// exact but enumerates every pattern of every vertex database, which is
// intractable beyond small networks.
func TCS(nw *dbnet.Network, opts Options) *Result {
	start := time.Now()
	res := newResult(opts.Alpha, "TCS")

	candidates := tcsCandidates(nw, opts)
	res.Stats.CandidatesGenerated = len(candidates)
	if opts.Parallelism > 1 {
		nw.Freeze()
	}
	trusses := make([]*truss.Truss, len(candidates))
	par.For(len(candidates), opts.Parallelism, func(i int) {
		trusses[i] = truss.Detect(nw.ThemeNetwork(candidates[i]), opts.Alpha)
	})
	for _, t := range trusses {
		res.Stats.MPTDCalls++
		res.add(t)
	}
	res.Stats.Duration = time.Since(start)
	return res
}

// tcsCandidates enumerates the union over all vertices of the patterns whose
// frequency on that vertex exceeds ε, sorted canonically.
func tcsCandidates(nw *dbnet.Network, opts Options) []itemset.Itemset {
	seen := make(map[itemset.Key]bool)
	var out []itemset.Itemset
	for v := 0; v < nw.NumVertices(); v++ {
		db := nw.Database(graph.VertexID(v))
		if db.Empty() {
			continue
		}
		mined := fpm.Enumerate(db, fpm.Options{MinFrequency: opts.Epsilon, MaxLength: opts.MaxPatternLength})
		for _, p := range mined {
			k := p.Items.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, p.Items)
			}
		}
	}
	itemset.Sort(out)
	return out
}
