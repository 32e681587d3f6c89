package stats

import (
	"math"
	"math/rand"
	"testing"
)

// relDiff returns |a-b| / max(|a|, |b|, 1e-300).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-300 {
		return d
	}
	return d / scale
}

// streamCases generates the sample families the property tests run over:
// tight normal (arrival-like), uniform, lognormal (heavy right tail) and a
// laggard mixture resembling the paper's process iterations.
func streamCases(r *rand.Rand, n int) map[string][]float64 {
	normal := make([]float64, n)
	uniform := make([]float64, n)
	lognormal := make([]float64, n)
	mixture := make([]float64, n)
	for i := 0; i < n; i++ {
		normal[i] = 26.3e-3 + 0.18e-3*r.NormFloat64()
		uniform[i] = 10e-3 + 20e-3*r.Float64()
		lognormal[i] = math.Exp(-3.6 + 0.4*r.NormFloat64())
		mixture[i] = 24.7e-3 + 0.1e-3*r.NormFloat64()
		if r.Float64() < 0.05 {
			mixture[i] += 1e-3 + r.ExpFloat64()*2e-3
		}
	}
	return map[string][]float64{
		"normal":    normal,
		"uniform":   uniform,
		"lognormal": lognormal,
		"mixture":   mixture,
	}
}

// TestMomentsMatchesExact: the streaming Moments accumulator must agree
// with the exact two-pass statistics within floating-point rounding
// (documented tolerance: 1e-9 relative).
func TestMomentsMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, xs := range streamCases(r, 20000) {
		t.Run(name, func(t *testing.T) {
			var m Moments
			m.AddSlice(xs)
			checks := []struct {
				what      string
				got, want float64
			}{
				{"mean", m.Mean(), Mean(xs)},
				{"variance", m.Variance(), Variance(xs)},
				{"stddev", m.StdDev(), StdDev(xs)},
				{"skewness", m.Skewness(), Skewness(xs)},
				{"kurtosis", m.Kurtosis(), Kurtosis(xs)},
				{"min", m.Min(), Min(xs)},
				{"max", m.Max(), Max(xs)},
			}
			if m.N() != int64(len(xs)) {
				t.Fatalf("N = %d, want %d", m.N(), len(xs))
			}
			for _, c := range checks {
				if relDiff(c.got, c.want) > 1e-9 {
					t.Errorf("%s: streaming %v vs exact %v (rel %g)", c.what, c.got, c.want, relDiff(c.got, c.want))
				}
			}
		})
	}
}

// TestMomentsMergeMatchesSequential: merging per-shard accumulators must
// agree with one sequential pass — the property the parallel fill relies
// on.
func TestMomentsMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, xs := range streamCases(r, 12000) {
		t.Run(name, func(t *testing.T) {
			var whole Moments
			whole.AddSlice(xs)
			var merged Moments
			for i := 0; i < len(xs); i += 1700 { // uneven shards
				end := i + 1700
				if end > len(xs) {
					end = len(xs)
				}
				var shard Moments
				shard.AddSlice(xs[i:end])
				merged.Merge(&shard)
			}
			if merged.N() != whole.N() {
				t.Fatalf("merged N = %d, want %d", merged.N(), whole.N())
			}
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"mean", merged.Mean(), whole.Mean()},
				{"variance", merged.Variance(), whole.Variance()},
				{"skewness", merged.Skewness(), whole.Skewness()},
				{"kurtosis", merged.Kurtosis(), whole.Kurtosis()},
				{"min", merged.Min(), whole.Min()},
				{"max", merged.Max(), whole.Max()},
			} {
				if relDiff(c.got, c.want) > 1e-8 {
					t.Errorf("%s: merged %v vs sequential %v", c.what, c.got, c.want)
				}
			}
		})
	}
}

func TestMomentsEmptyAndDegenerate(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) || !math.IsNaN(m.Variance()) || !math.IsNaN(m.Min()) || !math.IsNaN(m.Max()) {
		t.Fatal("empty accumulator should report NaN")
	}
	m.Add(3)
	if m.Mean() != 3 || m.Min() != 3 || m.Max() != 3 {
		t.Fatal("single observation mishandled")
	}
	if !math.IsNaN(m.Variance()) {
		t.Fatal("variance of n=1 should be NaN")
	}
	var other Moments
	other.Merge(&m)
	if other.Mean() != 3 || other.N() != 1 {
		t.Fatal("merge into empty lost state")
	}
}

// empiricalRank returns the fraction of the sorted sample <= v.
func empiricalRank(sorted []float64, v float64) float64 {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return float64(lo) / float64(len(sorted))
}

// TestQuantileSketchMatchesExact checks the documented guarantees at the
// default compression: rank error of the estimate at most 1.5% at the
// quartiles and median and 2% at the 5th/95th percentiles, and — where
// the density is smooth (every family's quartiles) — value agreement
// within 2% of the sample IQR.
func TestQuantileSketchMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for name, xs := range streamCases(r, 20000) {
		t.Run(name, func(t *testing.T) {
			q := NewQuantileSketch(0)
			q.AddSlice(xs)
			sorted := Sorted(xs)
			iqr := IQRSorted(sorted)
			for _, c := range []struct {
				p       float64
				rankTol float64
			}{
				{5, 0.02},
				{25, 0.015},
				{50, 0.015},
				{75, 0.015},
				{95, 0.02},
			} {
				got := q.Percentile(c.p)
				if rank := empiricalRank(sorted, got); math.Abs(rank-c.p/100) > c.rankTol {
					t.Errorf("p%g: sketch %v sits at empirical rank %.4f (tol ±%g)", c.p, got, rank, c.rankTol)
				}
			}
			for _, p := range []float64{25, 50, 75} {
				got, want := q.Percentile(p), PercentileSorted(sorted, p)
				if math.Abs(got-want) > 0.02*iqr {
					t.Errorf("p%g: sketch %v vs exact %v (tol %v)", p, got, want, 0.02*iqr)
				}
			}
			if q.minSeen != sorted[0] || q.maxSeen != sorted[len(sorted)-1] {
				t.Error("sketch min/max not exact")
			}
			if q.n != int64(len(xs)) {
				t.Fatalf("N = %d, want %d", q.n, len(xs))
			}
		})
	}
}

// TestQuantileSketchMergeMatchesWhole: a merge of per-shard sketches must
// stay within the same tolerances as a single sketch over the whole
// sample.
func TestQuantileSketchMergeMatchesWhole(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for name, xs := range streamCases(r, 16000) {
		t.Run(name, func(t *testing.T) {
			merged := NewQuantileSketch(0)
			for i := 0; i < len(xs); i += 3000 {
				end := i + 3000
				if end > len(xs) {
					end = len(xs)
				}
				shard := NewQuantileSketch(0)
				shard.AddSlice(xs[i:end])
				merged.Merge(shard)
			}
			sorted := Sorted(xs)
			iqr := IQRSorted(sorted)
			for _, p := range []float64{25, 50, 75} {
				got := merged.Percentile(p)
				want := PercentileSorted(sorted, p)
				if math.Abs(got-want) > 0.02*iqr {
					t.Errorf("p%g: merged sketch %v vs exact %v", p, got, want)
				}
			}
			if merged.n != int64(len(xs)) {
				t.Fatalf("merged N = %d, want %d", merged.n, len(xs))
			}
		})
	}
}

func TestQuantileSketchEdgeCases(t *testing.T) {
	q := NewQuantileSketch(50)
	if !math.IsNaN(q.Quantile(0.5)) {
		t.Fatal("empty sketch median should be NaN")
	}
	q.Add(4)
	if q.Quantile(0.5) != 4 || q.Quantile(0) != 4 || q.Quantile(1) != 4 {
		t.Fatal("single-value sketch wrong")
	}
	// Constant stream.
	for i := 0; i < 5000; i++ {
		q.Add(4)
	}
	if q.Quantile(0.25) != 4 || q.Quantile(0.99) != 4 {
		t.Fatal("constant stream quantiles wrong")
	}
	// Memory bound: centroid count stays O(compression·log n) after many
	// adds — well under 10x compression at n = 200000.
	r := rand.New(rand.NewSource(5))
	big := NewQuantileSketch(50)
	for i := 0; i < 200000; i++ {
		big.Add(r.NormFloat64())
	}
	big.flush()
	if len(big.centroids) > 10*50 {
		t.Fatalf("sketch grew to %d centroids (compression 50)", len(big.centroids))
	}
}

func TestStreamSummary(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 5 + 2*r.NormFloat64()
	}
	var m Moments
	q := NewQuantileSketch(0)
	m.AddSlice(xs)
	q.AddSlice(xs)
	got := StreamSummary(&m, q)
	want := Summarize(xs)
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
		t.Fatal("exact fields differ")
	}
	if relDiff(got.Mean, want.Mean) > 1e-9 || relDiff(got.StdDev, want.StdDev) > 1e-9 {
		t.Fatal("moment fields differ")
	}
	if math.Abs(got.Median-want.Median) > 0.02*want.IQR {
		t.Fatalf("median %v vs %v", got.Median, want.Median)
	}
}

// TestQuantileSketchAddSortedMatchesExact drives the AddSorted fast
// path with the hot-path block shape (sorted runs of 48, a simulated
// rank's thread count) and holds it to the same rank and value
// tolerances as the buffered Add path.
func TestQuantileSketchAddSortedMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for name, xs := range streamCases(r, 20016) {
		t.Run(name, func(t *testing.T) {
			q := NewQuantileSketch(0)
			for i := 0; i < len(xs); i += 48 {
				q.AddSorted(Sorted(xs[i : i+48]))
			}
			sorted := Sorted(xs)
			iqr := IQRSorted(sorted)
			for _, c := range []struct {
				p       float64
				rankTol float64
			}{
				{5, 0.02}, {25, 0.015}, {50, 0.015}, {75, 0.015}, {95, 0.02},
			} {
				got := q.Percentile(c.p)
				if rank := empiricalRank(sorted, got); math.Abs(rank-c.p/100) > c.rankTol {
					t.Errorf("p%g: sketch %v sits at empirical rank %.4f (tol ±%g)", c.p, got, rank, c.rankTol)
				}
			}
			for _, p := range []float64{25, 50, 75} {
				got, want := q.Percentile(p), PercentileSorted(sorted, p)
				if math.Abs(got-want) > 0.02*iqr {
					t.Errorf("p%g: sketch %v vs exact %v (tol %v)", p, got, want, 0.02*iqr)
				}
			}
			if q.minSeen != sorted[0] || q.maxSeen != sorted[len(sorted)-1] {
				t.Error("sketch min/max not exact")
			}
			if q.n != int64(len(xs)) {
				t.Fatalf("N = %d, want %d", q.n, len(xs))
			}
			// The AddSorted-only ingestion path must never allocate the
			// Add buffer — that buffer is what made per-iteration
			// sketches expensive at the 100x geometry.
			if q.buf != nil {
				t.Fatal("AddSorted allocated the Add buffer")
			}
		})
	}
}

// TestQuantileSketchMixedAddAddSorted interleaves scalar Adds with
// sorted-run ingestion and checks the combined sketch against the exact
// distribution — the flush ordering between the two paths must not lose
// or double-count mass.
func TestQuantileSketchMixedAddAddSorted(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	xs := make([]float64, 12000)
	for i := range xs {
		xs[i] = 5 + 2*r.NormFloat64()
	}
	q := NewQuantileSketch(0)
	i := 0
	for i < len(xs) {
		if (i/48)%3 == 0 {
			for j := 0; j < 48; j++ {
				q.Add(xs[i+j])
			}
		} else {
			q.AddSorted(Sorted(xs[i : i+48]))
		}
		i += 48
	}
	if q.n != int64(len(xs)) {
		t.Fatalf("N = %d, want %d", q.n, len(xs))
	}
	sorted := Sorted(xs)
	iqr := IQRSorted(sorted)
	for _, p := range []float64{25, 50, 75} {
		got, want := q.Percentile(p), PercentileSorted(sorted, p)
		if math.Abs(got-want) > 0.02*iqr {
			t.Errorf("p%g: sketch %v vs exact %v (tol %v)", p, got, want, 0.02*iqr)
		}
	}
	// Mergeability across ingestion styles.
	q2 := NewQuantileSketch(0)
	q2.AddSorted(sorted)
	q.Merge(q2)
	if q.n != 2*int64(len(xs)) {
		t.Fatalf("merged N = %d", q.n)
	}
	for _, p := range []float64{25, 50, 75} {
		got, want := q.Percentile(p), PercentileSorted(sorted, p)
		if math.Abs(got-want) > 0.02*iqr {
			t.Errorf("post-merge p%g: %v vs %v", p, got, want)
		}
	}
}

// TestQuantileSketchAddSortedMemoryBound pins the centroid bound for
// AddSorted-fed sketches (the per-iteration sketches at the 100x
// geometry live or die on this).
func TestQuantileSketchAddSortedMemoryBound(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	q := NewQuantileSketch(32)
	block := make([]float64, 48)
	for i := 0; i < 200016/48; i++ {
		for j := range block {
			block[j] = r.NormFloat64()
		}
		q.AddSorted(Sorted(block))
	}
	if len(q.centroids) > 10*32 {
		t.Fatalf("sketch grew to %d centroids (compression 32)", len(q.centroids))
	}
}
