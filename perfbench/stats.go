package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile implements the reporting rule for tail latency: the
// highest percentile, capped at p99, that still has at least ten samples
// beyond it. It returns the nearest-rank value and the percentile it
// stands for. With fewer than 21 samples no percentile above the median
// qualifies, and the median is returned.
func tailPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(0.99*float64(n))) - 1 // nearest-rank p99
	if lim := n - 11; k > lim {
		k = lim // keep ten samples beyond index k
	}
	if mid := (n - 1) / 2; k < mid {
		return median(xs), 50
	}
	return s[k], 100 * float64(k+1) / float64(n)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns num/den, or 0 when den is 0 (an idle layer).
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
