// Package stats provides the numeric aggregation and plain-text reporting
// used by the experiment harness: streaming moments (Welford), quantiles,
// and the Series/Table formatters that print the same rows and series the
// paper's figures and tables report.
package stats

import (
	"fmt"
	"sort"
)

// Agg accumulates streaming summary statistics using Welford's algorithm,
// which is numerically stable for long runs of small tick times.
type Agg struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the aggregate.
func (a *Agg) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Agg) N() int64 { return a.n }

// Mean returns the arithmetic mean (0 when empty).
func (a *Agg) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance (0 with fewer than two
// observations).
func (a *Agg) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Min returns the smallest observation (0 when empty).
func (a *Agg) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 when empty).
func (a *Agg) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// Merge combines another aggregate into a (parallel aggregation).
func (a *Agg) Merge(b Agg) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.mean += d * float64(b.n) / float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs. Callers
// needing several quantiles of the same slice should use Percentiles,
// which sorts once.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

// Percentiles returns the p-quantile of xs for each p in ps, sorting the
// copied slice exactly once — the multi-quantile companion of Percentile
// for latency reporting, where p50/p95/p99 are read off the same sample.
// It does not modify xs.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = quantileSorted(sorted, p)
	}
	return out
}

// quantileSorted reads the p-quantile off an already-sorted slice.
func quantileSorted(sorted []float64, p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Speedup formats the ratio a/b as "N.NNx"; it guards the divide.
func Speedup(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// ArgminIndex returns the index of the smallest element (-1 when empty).
func ArgminIndex(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
