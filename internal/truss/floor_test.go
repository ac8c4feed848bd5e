package truss

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestFloorHoldsTheKthBest: once offered k cohesions, a floor prunes exactly
// the bounds below the k-th largest offered by more than cohesionTolerance;
// before that, and as nil, it prunes nothing.
func TestFloorHoldsTheKthBest(t *testing.T) {
	var nilFloor *Floor
	nilFloor.Offer(1)
	if nilFloor.Prunes(math.Inf(-1)) {
		t.Fatal("the nil floor pruned")
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 5, 40} {
		f := NewFloor(k)
		var offered []float64
		for n := 0; n < 60; n++ {
			c := float64(rng.Intn(20)) / 8
			f.Offer(c)
			offered = append(offered, c)
			if len(offered) < k {
				if f.Prunes(math.Inf(-1)) {
					t.Fatalf("k=%d: pruned after %d offers", k, len(offered))
				}
				continue
			}
			sorted := slices.Clone(offered)
			slices.Sort(sorted)
			kth := sorted[len(sorted)-k]
			if f.Prunes(kth-cohesionTolerance/2) || !f.Prunes(kth-2*cohesionTolerance) {
				t.Fatalf("k=%d after %d offers: the floor is not the k-th best, %g", k, len(offered), kth)
			}
		}
		if len(f.best) > k {
			t.Fatalf("k=%d: the floor holds %d cohesions", k, len(f.best))
		}
	}
	// k has no upper bound: the floor holds what it was offered.
	f := NewFloor(math.MaxInt)
	f.Offer(1)
	if len(f.best) != 1 || cap(f.best) > 8 || f.Prunes(0) {
		t.Fatalf("a floor of k = MaxInt holds %d cohesions in %d slots", len(f.best), cap(f.best))
	}
}
