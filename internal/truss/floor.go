package truss

// Floor is the cohesion a community must reach to still belong to a top-k
// answer: it holds the k best cohesions offered so far, and once it holds k
// of them the worst is the floor. Every offer is a community some traversal
// retrieved, so at least k communities of the answer reach the floor, and a
// community whose cohesion lies strictly below it orders after all of them
// and is not among the k best.
//
// The anti-monotonicity of pattern trusses (a pattern's truss only shrinks as
// the pattern grows) makes a node's α* bound — its last level threshold — a
// cap on the cohesion of every community in its subtree, so a ranked
// traversal skips a subtree whose bound the floor prunes. Bounds computed
// along different paths may drift a few ULPs above their ancestors' (the
// decoder admits a node whose bound exceeds no bound on its path from the
// shard root by more than cohesionTolerance, see BoundWithin), so a bound is
// pruned only when it lies below the floor by more than the tolerance: then
// every bound beneath it lies below the floor too.
//
// A Floor grows with what it is offered and is never sized by k: k comes from
// a request and has no upper bound. The nil Floor is the unranked query: it
// prunes nothing and ignores offers. A Floor is not safe for concurrent use.
type Floor struct {
	k int
	// best is a min-heap of the largest cohesions offered, at most k of them.
	best []float64
}

// NewFloor returns the floor of a top-k answer; k must be positive.
func NewFloor(k int) *Floor { return &Floor{k: k} }

// Offer records the cohesion of a retrieved community.
func (f *Floor) Offer(cohesion float64) {
	switch {
	case f == nil:
	case len(f.best) < f.k:
		f.best = append(f.best, cohesion)
		for i := len(f.best) - 1; i > 0; {
			parent := (i - 1) / 2
			if f.best[parent] <= f.best[i] {
				break
			}
			f.best[i], f.best[parent] = f.best[parent], f.best[i]
			i = parent
		}
	case cohesion > f.best[0]:
		f.best[0] = cohesion
		for i := 0; ; {
			low := i
			if l := 2*i + 1; l < len(f.best) && f.best[l] < f.best[low] {
				low = l
			}
			if r := 2*i + 2; r < len(f.best) && f.best[r] < f.best[low] {
				low = r
			}
			if low == i {
				break
			}
			f.best[i], f.best[low] = f.best[low], f.best[i]
			i = low
		}
	}
}

// Prunes reports whether no community under the α* bound can belong to the
// top k: the floor holds k cohesions and bound lies below it by more than
// cohesionTolerance.
func (f *Floor) Prunes(bound float64) bool {
	return f != nil && len(f.best) == f.k && bound < f.best[0]-cohesionTolerance
}

// BoundWithin reports whether a node's α* bound exceeds ceiling, the least
// bound on its path from the shard root, by at most cohesionTolerance: the
// drift Floor.Prunes absorbs. Anti-monotonicity makes a child's bound at most
// its parent's; the decoder refuses a stored node that exceeds it by more.
func BoundWithin(bound, ceiling float64) bool { return bound <= ceiling+cohesionTolerance }
