// Package stats provides the summary statistics the study reports:
// geometric means of speedups (Tables 3 and 4) and the five-number box
// statistics behind the speedup distribution plots (Figures 2 and 3).
package stats

import (
	"math"
	"sort"
)

// GeoMean returns the geometric mean of xs; non-positive entries are
// ignored (a speedup is always positive). Returns 0 for an empty input.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics; xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Box summarises a distribution the way the paper's box plots do: median,
// lower/upper quartiles, and whiskers at the most extreme points within
// 1.5×IQR of the quartiles; points beyond are outliers.
type Box struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLo, WhiskerHi     float64
	Outliers                 int
	N                        int
}

// BoxStats computes the box summary of xs.
func BoxStats(xs []float64) Box {
	b := Box{N: len(xs)}
	if len(xs) == 0 {
		b.Min, b.Q1, b.Median, b.Q3, b.Max = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return b
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	b.Min, b.Max = s[0], s[len(s)-1]
	b.Q1 = Quantile(s, 0.25)
	b.Median = Quantile(s, 0.5)
	b.Q3 = Quantile(s, 0.75)
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo, b.WhiskerHi = b.Q3, b.Q1
	for _, x := range s {
		if x >= loFence && x <= hiFence {
			if x < b.WhiskerLo {
				b.WhiskerLo = x
			}
			if x > b.WhiskerHi {
				b.WhiskerHi = x
			}
		} else {
			b.Outliers++
		}
	}
	if b.Outliers == len(s) { // degenerate: all outliers (IQR = 0 artifacts)
		b.WhiskerLo, b.WhiskerHi = b.Min, b.Max
	}
	return b
}

// MinMax returns the extrema of xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
