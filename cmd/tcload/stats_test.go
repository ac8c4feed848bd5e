package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		p         float64
		want      float64
		supported bool
	}{
		{50, 50, true},  // rank ceil(0.50*100)=50, 50 beyond
		{90, 90, true},  // exactly ten beyond
		{91, 91, false}, // nine beyond
		{99, 99, false}, // one beyond
		{100, 100, false},
		{0.5, 1, true},
	} {
		got, ok := percentile(values, tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(1..100, %g) = %g, %v; want %g, %v", tc.p, got, ok, tc.want, tc.supported)
		}
	}
	// Nearest rank never interpolates: the answer is always a sample.
	if got, _ := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("percentile([1 2 3 4], 50) = %g, want 2", got)
	}
	if got, ok := percentile(nil, 50); got != 0 || ok {
		t.Errorf("percentile(nil) = %g, %v; want 0, false", got, ok)
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	// p99 needs 1,000 samples, p95 needs 200, p50 needs 20.
	for _, tc := range []struct {
		p float64
		n int
	}{{99, 1000}, {95, 200}, {50, 20}} {
		at := make([]float64, tc.n)
		below := make([]float64, tc.n-1)
		if _, ok := percentile(at, tc.p); !ok {
			t.Errorf("p%g over %d samples should be supported", tc.p, tc.n)
		}
		if _, ok := percentile(below, tc.p); ok {
			t.Errorf("p%g over %d samples should not be supported", tc.p, tc.n-1)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 30})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles = %g %g %g, want 10 20 30", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, 27.5/13.5)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
