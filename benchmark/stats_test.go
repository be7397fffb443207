package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n        int
		p50, p90 bool
	}{
		{0, false, false},
		{19, false, false},
		{20, true, false},
		{99, true, false},
		{100, true, true},
		{1000, true, true},
	}
	for _, c := range cases {
		l := latencies{ms: seq(c.n)}
		s := l.summary()
		if s.N != c.n {
			t.Errorf("n=%d: summary counted %d samples", c.n, s.N)
		}
		if got := !math.IsNaN(s.P50); got != c.p50 {
			t.Errorf("n=%d: p50 reported=%v, want %v", c.n, got, c.p50)
		}
		if got := !math.IsNaN(s.P90); got != c.p90 {
			t.Errorf("n=%d: p90 reported=%v, want %v", c.n, got, c.p90)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Unsorted input must not leak into the summary.
	l := latencies{ms: []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 15, 11, 14, 12, 13, 20, 19, 18, 17, 16}}
	if s := l.summary(); s.P50 != 10 {
		t.Errorf("p50 of shuffled 1..20 = %g, want 10", s.P50)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is how the benchmark's acceptance computes spreads.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(11), 3, 9},
		{[]float64{10.2, 9.7, 10.0, 10.4, 9.9, 10.1, 10.3, 9.8, 10.0, 10.6}, 9.875, 10.325},
		{seq(4), 1.25, 3.75},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadAndMedian(t *testing.T) {
	xs := seq(10) // median 5.5, IQR 5.5
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %g, want 5.5", m)
	}
	if s := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
}
