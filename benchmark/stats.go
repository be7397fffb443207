package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p90 over 30 samples rests on three values and
// moves with every outlier.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples (the epsilon keeps 0.9*100 from rounding up to 91).
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// supported reports whether n samples leave at least minBeyond samples
// above the q-quantile.
func supported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// latencies is one class of per-operation timings in milliseconds.
// Classes are never pooled: a median over a mix of two populations
// jumps between them as the mix shifts.
type latencies struct {
	ms []float64
}

// summary is the reported view of one latency class.
type summary struct {
	N   int
	P50 float64 // NaN when fewer than 2*minBeyond samples
	P90 float64 // NaN when fewer than 10*minBeyond samples
}

func (l *latencies) add(ms float64) { l.ms = append(l.ms, ms) }

func (l *latencies) summary() summary {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: math.NaN(), P90: math.NaN()}
	if supported(len(s), 0.5) {
		out.P50 = quantile(s, 0.5)
	}
	if supported(len(s), 0.9) {
		out.P90 = quantile(s, 0.9)
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
// so the spreads this benchmark prints match the ones its acceptance
// check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := n + 1
		pos := j * m
		k := pos / 4
		frac := float64(pos%4) / 4
		switch {
		case k < 1:
			k, frac = 1, 0
		case k > n-1:
			k, frac = n-1, 1
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}
