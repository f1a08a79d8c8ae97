package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have beyond
// it: a percentile with fewer is set by a handful of outliers.
const minTail = 10

// standardPercentiles are the percentiles tail chooses from, lowest first.
var standardPercentiles = []float64{0.5, 0.9, 0.99, 0.999}

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1]); xs
// need not be sorted and is not modified. It returns NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tail returns the highest standard percentile with at least minTail
// samples beyond it, and its value. ok is false when even the median lacks
// that support (fewer than 2*minTail samples).
func tail(xs []float64) (q, v float64, ok bool) {
	for _, p := range standardPercentiles {
		if len(xs)-rank(len(xs), p) < minTail {
			break
		}
		q, ok = p, true
	}
	if !ok {
		return 0, math.NaN(), false
	}
	return q, percentile(xs, q), true
}

// supported reports whether the q-quantile of n samples has at least
// minTail samples beyond it.
func supported(n int, q float64) bool { return n > 0 && n-rank(n, q) >= minTail }

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached reports 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
