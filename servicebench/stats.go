package main

import (
	"math"
	"sort"
	"time"
)

// minBeyondTail is how many samples must lie beyond the tail percentile
// for it to be reported.
const minBeyondTail = 10

// beyond returns how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(p float64, n int) int {
	return n - nearestRank(p, n)
}

// nearestRank returns the 1-based nearest rank of the p-th percentile
// among n samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps binary rounding of p from pushing an exact rank
	// up by one.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile returns the highest percentile with exactly
// minBeyondTail samples beyond it at n samples; the median when n is too
// small for the tail to lie above it.
func tailPercentile(n int) float64 {
	if n < 2*minBeyondTail {
		return 50
	}
	return 100 * float64(n-minBeyondTail) / float64(n)
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(p, len(xs))-1]
}

// median returns the midpoint median of xs without modifying it; 0 for
// no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
