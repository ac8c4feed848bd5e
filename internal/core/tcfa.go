package core

import (
	"sort"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/itemset"
	"themecomm/internal/par"
	"themecomm/internal/truss"
)

// TCFA is the Theme Community Finder Apriori algorithm (Section 5.2,
// Algorithm 3). It grows qualified patterns level by level: the length-k
// candidates are generated by joining length-(k-1) qualified patterns
// (Algorithm 2), every candidate whose (k-1)-sub-patterns are not all
// qualified is pruned by pattern anti-monotonicity (Proposition 5.2), and the
// survivors are checked by inducing their theme network from the full
// database network and running MPTD.
//
// TCFA is exact: it finds every maximal pattern truss found by TCS with ε = 0.
func TCFA(nw *dbnet.Network, opts Options) *Result {
	return findLevelwise(nw, opts, false)
}

// TCFI is the Theme Community Finder Intersection algorithm (Section 5.3).
// It refines TCFA with the graph-intersection property (Proposition 5.3):
// for a candidate p^k = p^{k-1} ∪ q^{k-1}, the maximal pattern truss of p^k
// is contained in C*_{p^{k-1}}(α) ∩ C*_{q^{k-1}}(α). Candidates whose parent
// trusses do not intersect are pruned without running MPTD, and the surviving
// candidates are evaluated inside the (small) intersection instead of the
// full database network. TCFI is exact and produces the same result as TCFA.
func TCFI(nw *dbnet.Network, opts Options) *Result {
	return findLevelwise(nw, opts, true)
}

// evaluation is the per-candidate outcome of one MPTD check, used to merge
// worker results deterministically.
type evaluation struct {
	truss  *truss.Truss
	pruned bool
	ranMPT bool
}

// findLevelwise is the shared level-wise driver of TCFA and TCFI.
func findLevelwise(nw *dbnet.Network, opts Options, useIntersection bool) *Result {
	start := time.Now()
	name := "TCFA"
	if useIntersection {
		name = "TCFI"
	}
	res := newResult(opts.Alpha, name)
	maxLen := opts.MaxPatternLength
	if maxLen <= 0 {
		maxLen = int(^uint(0) >> 1)
	}
	workers := opts.Parallelism
	if workers > 1 {
		// Concurrent candidate evaluation reads the network from several
		// goroutines; freeze the lazily built structures first.
		nw.Freeze()
	}

	// Level 1: every single item of S (Line 1 of Algorithm 3).
	items := nw.Items()
	evals := make([]evaluation, items.Len())
	par.For(items.Len(), workers, func(i int) {
		tn := nw.ThemeNetwork(itemset.New(items[i]))
		evals[i] = evaluation{truss: truss.Detect(tn, opts.Alpha), ranMPT: true}
	})
	level := make(map[itemset.Key]*truss.Truss)
	for i, ev := range evals {
		res.Stats.CandidatesGenerated++
		res.Stats.MPTDCalls++
		if !ev.truss.Empty() {
			level[itemset.New(items[i]).Key()] = ev.truss
			res.add(ev.truss)
		}
	}

	k := 2
	for len(level) > 0 && k <= maxLen {
		candidates := joinLevel(level)
		evals = make([]evaluation, len(candidates))
		par.For(len(candidates), workers, func(i int) {
			evals[i] = evaluateCandidate(nw, candidates[i], level, opts.Alpha, useIntersection)
		})

		next := make(map[itemset.Key]*truss.Truss)
		for i, ev := range evals {
			res.Stats.CandidatesGenerated++
			if ev.pruned {
				res.Stats.CandidatesPruned++
				continue
			}
			if ev.ranMPT {
				res.Stats.MPTDCalls++
			}
			if !ev.truss.Empty() {
				next[candidates[i].pattern.Key()] = ev.truss
				res.add(ev.truss)
			}
		}
		level = next
		k++
	}

	res.Stats.Duration = time.Since(start)
	return res
}

// evaluateCandidate applies the Apriori check, the optional intersection
// pruning, and MPTD to one candidate pattern.
func evaluateCandidate(nw *dbnet.Network, cand candidate, level map[itemset.Key]*truss.Truss, alpha float64, useIntersection bool) evaluation {
	// Apriori check (Algorithm 2): every (k-1)-sub-pattern qualified.
	if !allImmediateSubsetsQualified(cand.pattern, level) {
		return evaluation{pruned: true}
	}
	var tn *dbnet.ThemeNetwork
	if useIntersection {
		inter := cand.left.Edges.Intersect(cand.right.Edges)
		if inter.Len() == 0 {
			// Proposition 5.3: an empty intersection certifies an empty
			// maximal pattern truss.
			return evaluation{pruned: true}
		}
		tn = nw.ThemeNetworkWithin(cand.pattern, inter)
	} else {
		tn = nw.ThemeNetwork(cand.pattern)
	}
	return evaluation{truss: truss.Detect(tn, alpha), ranMPT: true}
}

// candidate is a length-k candidate pattern together with the two qualified
// length-(k-1) parents whose union produced it.
type candidate struct {
	pattern     itemset.Itemset
	left, right *truss.Truss
}

// joinLevel generates the length-k candidates from the length-(k-1) qualified
// level by prefix join, keeping track of the parent trusses for the
// intersection optimization. Each candidate appears once.
func joinLevel(level map[itemset.Key]*truss.Truss) []candidate {
	patterns := make([]itemset.Itemset, 0, len(level))
	for k := range level {
		patterns = append(patterns, k.Itemset())
	}
	itemset.Sort(patterns)

	var out []candidate
	seen := make(map[itemset.Key]bool)
	for i := 0; i < len(patterns); i++ {
		for j := i + 1; j < len(patterns); j++ {
			a, b := patterns[i], patterns[j]
			if !a.Prefix(a.Len() - 1).Equal(b.Prefix(b.Len() - 1)) {
				break // patterns are sorted: prefix groups are contiguous
			}
			union := a.Union(b)
			if union.Len() != a.Len()+1 {
				continue
			}
			key := union.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, candidate{pattern: union, left: level[a.Key()], right: level[b.Key()]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return itemset.Compare(out[i].pattern, out[j].pattern) < 0 })
	return out
}

// allImmediateSubsetsQualified reports whether every length-(k-1) sub-pattern
// of cand is in the qualified level.
func allImmediateSubsetsQualified(cand itemset.Itemset, level map[itemset.Key]*truss.Truss) bool {
	for _, sub := range cand.ImmediateSubsets() {
		if _, ok := level[sub.Key()]; !ok {
			return false
		}
	}
	return true
}
