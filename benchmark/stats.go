package main

import (
	"math"
	"sort"
)

// The benchmark keeps its own sample arithmetic rather than importing
// internal/stats: a change to the repository must not be able to change
// how the benchmark reads its samples.

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics, the convention of
// internal/stats.Percentile. xs need not be sorted and is not modified.
// An empty sample has no quantile: the result is NaN, so a metric that
// was never measured can never read as a plausible number.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

func quantileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mad is the median absolute deviation from the median: the spread
// recorded next to every min-of-rounds layer figure.
func mad(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// sample is one named quantity measured over repeated rounds.
type sample struct{ xs []float64 }

func (s *sample) add(x float64) { s.xs = append(s.xs, x) }
func (s *sample) n() int        { return len(s.xs) }
func (s *sample) min() float64  { return minOf(s.xs) }
func (s *sample) med() float64  { return median(s.xs) }
func (s *sample) mad() float64  { return mad(s.xs) }

// pool concatenates per-round samples into one: the wall-clock tick
// quantiles of the traced pass are taken over the ticks of all rounds.
func pool(rounds [][]float64) []float64 {
	n := 0
	for _, r := range rounds {
		n += len(r)
	}
	out := make([]float64, 0, n)
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}

// pct is the relative excess of a over base in percent; NaN when the
// base is not a positive number.
func pct(a, base float64) float64 {
	if !(base > 0) {
		return math.NaN()
	}
	return (a/base - 1) * 100
}
