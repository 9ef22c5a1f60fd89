// Package stats provides the small statistical helpers the experiment
// harness needs: percentiles, means and simple summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. Panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile over an already-sorted slice: no copy,
// no sort, no allocation — for callers on a hot path that manage their
// own scratch buffer. Panics on empty input.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean. Panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Max returns the maximum. Panics on empty input.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum. Panics on empty input.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Summary formats mean/p50/p99/max of xs compactly for experiment output.
func Summary(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g",
		len(xs), Mean(xs), Percentile(xs, 50), Percentile(xs, 99), Max(xs))
}
