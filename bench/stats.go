package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p/100*n's rounding error from lifting an exact
	// product over the next integer.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// (exact: no interpolation, no buckets). It returns 0 for an empty sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailPercentile returns the highest percentile of tailLadder, no higher
// than limit, that n samples support with at least minBeyond samples beyond
// it. A sample too small for any tail falls back to the median.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p <= limit && n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// median returns the median of xs (mean of the two middle values for an
// even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so that spreads
// printed here match the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	m := len(xs)
	if m < 2 {
		if m == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median: the
// run-to-run noise a difference must exceed before it means anything.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func nsToUs(ns int64) float64 { return float64(ns) / 1e3 }
