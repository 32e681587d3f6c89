// Exact descriptive statistics over materialised float64 samples; the
// streaming counterparts live in stream.go.

package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns NaN for an empty
// sample so that plotting pipelines can propagate missing data.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CentralMoments returns the second, third and fourth central sample
// moments (each divided by n) in one pass: the mean is computed once and
// each deviation d = x - mean contributes d², d³ and d⁴ as
// d2 := d*d; d2*d; d2*d2.
//
// These are bit-identical to summing math.Pow(d, k) for k = 2, 3, 4.
// For an integer exponent, Go's Pow multiplies Frexp mantissas by
// repeated squaring and rescales by an exact power of two, so Pow(d, 2)
// rounds m*m, Pow(d, 3) rounds m*round(m*m) and Pow(d, 4) rounds
// round(m*m)², the same sequence of roundings as the products above.
// Rounding is scale-invariant while the result is a normal float, so
// the two agree everywhere except where a power lands in the subnormal
// range (|d| ≲ 1e-77), which compute-time deviations never reach.
// Each moment's sum accumulates in sample order, exactly as the
// per-moment scans did.
func CentralMoments(xs []float64) (m2, m3, m4 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := Mean(xs)
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	n := float64(len(xs))
	return m2 / n, m3 / n, m4 / n
}

// Shape returns the sample skewness g1 = m3 / m2^(3/2) and the
// (non-excess) sample kurtosis b2 = m4 / m2² from one CentralMoments
// pass — the moment estimators of D'Agostino's test.
func Shape(xs []float64) (g1, b2 float64) {
	m2, m3, m4 := CentralMoments(xs)
	return m3 / math.Pow(m2, 1.5), m4 / (m2 * m2)
}

// Skewness returns the sample skewness g1 = m3 / m2^(3/2), the moment
// estimator used by D'Agostino's test.
func Skewness(xs []float64) float64 {
	g1, _ := Shape(xs)
	return g1
}

// Kurtosis returns the (non-excess) sample kurtosis b2 = m4 / m2^2.
// A normal sample has b2 close to 3.
func Kurtosis(xs []float64) float64 {
	_, b2 := Shape(xs)
	return b2
}

// Min returns the smallest element of xs.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest element of xs.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// PercentileSorted returns the p-th percentile (0 <= p <= 100) of an
// already-sorted sample using linear interpolation between closest ranks
// (the "linear" method used by NumPy and R type 7).
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	h := (p / 100) * float64(n-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	v := sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// The difference overflowed (inputs near ±MaxFloat64); the convex
		// combination form cannot overflow past the endpoints.
		v = sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	return v
}

// Percentile returns the p-th percentile of xs (unsorted input).
func Percentile(xs []float64, p float64) float64 {
	return PercentileSorted(Sorted(xs), p)
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// IQRSorted returns the inter-quartile range of a sorted sample.
func IQRSorted(sorted []float64) float64 {
	return PercentileSorted(sorted, 75) - PercentileSorted(sorted, 25)
}

// IQR returns the inter-quartile range of xs.
func IQR(xs []float64) float64 { return IQRSorted(Sorted(xs)) }

// IQRSelect returns IQR(xs) bit for bit without sorting, and permutes xs
// in place to do it. PercentileSorted at p = 25 and p = 75 reads only
// four positions of the sorted sample: ⌊0.25(n−1)⌋, ⌊0.75(n−1)⌋ and the
// position after each. Quickselect puts the order statistic of each
// lower position in place, and the minimum of the partition to its
// right is the order statistic after it; IQRSorted then reads the same
// four values a full sort would have put there. Expected O(n); the
// rest of xs is left in an unspecified order. xs must not contain NaN.
func IQRSelect(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return IQRSorted(xs)
	}
	lo := int(math.Floor(0.25 * float64(n-1)))
	hi := int(math.Floor(0.75 * float64(n-1)))
	selectKth(xs, hi)
	if hi+1 < n {
		minToFront(xs[hi+1:])
	}
	if lo < hi {
		selectKth(xs[:hi], lo)
		if lo+1 < hi {
			minToFront(xs[lo+1 : hi])
		}
	}
	return IQRSorted(xs)
}

// selectKth permutes s so that s[k] holds the value a full ascending
// sort would put there, with s[:k] <= s[k] <= s[k+1:]. It is Hoare's
// quickselect with a median-of-three pivot; past 2·log2(n) rounds it
// sorts the remaining window, which bounds the worst case at O(n log n).
func selectKth(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); hi > lo; budget-- {
		if budget == 0 {
			slices.Sort(s[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo:j+1] <= pivot <= s[i:hi+1], and s[j+1:i] == pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// minToFront swaps the smallest element of s into s[0].
func minToFront(s []float64) {
	m := 0
	for i, x := range s {
		if x < s[m] {
			m = i
		}
	}
	s[0], s[m] = s[m], s[0]
}

// Summary holds the descriptive statistics reported for a sample throughout
// the study.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	P5       float64
	P25      float64
	Median   float64
	P75      float64
	P95      float64
	Max      float64
	IQR      float64
	Skewness float64
	Kurtosis float64
}

// Summarize computes a Summary for xs.
func Summarize(xs []float64) Summary {
	s := Sorted(xs)
	g1, b2 := Shape(xs)
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		StdDev:   StdDev(xs),
		Min:      Min(xs),
		P5:       PercentileSorted(s, 5),
		P25:      PercentileSorted(s, 25),
		Median:   PercentileSorted(s, 50),
		P75:      PercentileSorted(s, 75),
		P95:      PercentileSorted(s, 95),
		Max:      Max(xs),
		IQR:      IQRSorted(s),
		Skewness: g1,
		Kurtosis: b2,
	}
}
