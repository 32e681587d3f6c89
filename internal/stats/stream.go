// Streaming accumulators: one-pass, constant-memory counterparts of the
// exact descriptive statistics in desc.go, for studies too large to
// materialise. Moments tracks the first four central moments plus min/max
// (Welford/Pébay updates, exact up to floating-point rounding);
// QuantileSketch is a mergeable t-digest-style percentile estimator with
// documented, bounded error. Both types merge, so a parallel fill can keep
// one accumulator per worker and combine at the end.

package stats

import (
	"math"

	"earlybird/internal/sortx"
)

// Moments is a one-pass, mergeable accumulator of a sample's count, mean,
// central moments M2..M4 and min/max. Its accessors mirror the exact
// functions in desc.go: for the same sample, Mean/Variance/Skewness/
// Kurtosis agree with Mean()/Variance()/Skewness()/Kurtosis() up to
// floating-point rounding (typically within 1e-9 relative error).
// The zero value is an empty accumulator ready for use.
type Moments struct {
	n                int64
	mean, m2, m3, m4 float64
	minSeen, maxSeen float64
	nonEmpty         bool
}

// Add folds one observation into the accumulator (Welford/West update).
func (m *Moments) Add(x float64) {
	if !m.nonEmpty {
		m.minSeen, m.maxSeen = x, x
		m.nonEmpty = true
	} else {
		if x < m.minSeen {
			m.minSeen = x
		}
		if x > m.maxSeen {
			m.maxSeen = x
		}
	}
	n1 := float64(m.n)
	m.n++
	n := float64(m.n)
	delta := x - m.mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.mean += deltaN
	m.m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.m2 - 4*deltaN*m.m3
	m.m3 += term1*deltaN*(n-2) - 3*deltaN*m.m2
	m.m2 += term1
}

// AddSlice folds every element of xs into the accumulator.
func (m *Moments) AddSlice(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// Merge folds another accumulator into this one (Pébay's pairwise update);
// o is not modified. Merging is associative up to floating-point rounding,
// so per-worker accumulators may be combined in any order.
func (m *Moments) Merge(o *Moments) {
	if o == nil || o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	if o.minSeen < m.minSeen {
		m.minSeen = o.minSeen
	}
	if o.maxSeen > m.maxSeen {
		m.maxSeen = o.maxSeen
	}
	na, nb := float64(m.n), float64(o.n)
	n := na + nb
	delta := o.mean - m.mean
	d2 := delta * delta
	mean := m.mean + delta*nb/n
	m2 := m.m2 + o.m2 + d2*na*nb/n
	m3 := m.m3 + o.m3 + delta*d2*na*nb*(na-nb)/(n*n) +
		3*delta*(na*o.m2-nb*m.m2)/n
	m4 := m.m4 + o.m4 + d2*d2*na*nb*(na*na-na*nb+nb*nb)/(n*n*n) +
		6*d2*(na*na*o.m2+nb*nb*m.m2)/(n*n) +
		4*delta*(na*o.m3-nb*m.m3)/n
	m.n += o.n
	m.mean, m.m2, m.m3, m.m4 = mean, m2, m3, m4
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the arithmetic mean, NaN when empty.
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the unbiased (n-1) sample variance, NaN for n < 2.
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return math.NaN()
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Skewness returns the moment estimator g1 = m3 / m2^(3/2), matching
// Skewness in desc.go.
func (m *Moments) Skewness() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	n := float64(m.n)
	c2 := m.m2 / n
	c3 := m.m3 / n
	return c3 / math.Pow(c2, 1.5)
}

// Kurtosis returns the (non-excess) kurtosis b2 = m4 / m2^2, matching
// Kurtosis in desc.go.
func (m *Moments) Kurtosis() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	n := float64(m.n)
	c2 := m.m2 / n
	c4 := m.m4 / n
	return c4 / (c2 * c2)
}

// Min returns the smallest observation, NaN when empty.
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.minSeen
}

// Max returns the largest observation, NaN when empty.
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.maxSeen
}

// DefaultSketchCompression is the QuantileSketch compression used when the
// caller passes 0. Error bounds scale as 1/compression (see
// NewQuantileSketch).
const DefaultSketchCompression = 100

// centroid is one weighted cluster of a QuantileSketch.
type centroid struct {
	mean  float64
	count int64
}

// QuantileSketch is a mergeable, bounded-memory quantile estimator in the
// t-digest family: incoming values buffer briefly, then compress into a
// sorted list of weighted centroids whose maximum weight shrinks towards
// the distribution's tails (the classic 4·N·q·(1-q)/δ size bound).
// Memory is O(compression · log n) — the log factor comes from tail
// singletons — a few kilobytes at the default compression for any
// realistic n.
//
// Accuracy is a rank guarantee: the estimated q-quantile corresponds to
// an exact q'-quantile with |q - q'| ≲ 2·q·(1-q)/compression, i.e. about
// 0.5% rank error at the quartiles for the default compression of 100
// (property-tested at ≤1.5% mid-range and ≤2% at p5/p95 in
// stream_test.go). The value error that rank error translates to depends
// on the local density: for the unimodal arrival distributions of this
// study, quartile and median estimates land within ~2% of the sample IQR
// of the exact value; near density gaps (e.g. a percentile falling
// exactly on a laggard-mixture boundary) the value error can be larger
// even though the rank error stays bounded. Min and max are tracked
// exactly. The zero value is not usable; call NewQuantileSketch.
type QuantileSketch struct {
	compression float64
	centroids   []centroid
	scratch     []centroid // reused merge buffer; no allocation per flush
	buf         []float64
	pending     []float64 // concatenated sorted runs awaiting one combined fold
	runEnds     []int     // end offset of each pending run
	mscratch    []float64 // ping-pong buffer for pairwise run merging
	n           int64
	minSeen     float64
	maxSeen     float64
}

// NewQuantileSketch returns an empty sketch; compression <= 0 selects
// DefaultSketchCompression. Larger compressions are more accurate and use
// proportionally more memory (roughly 24 bytes per unit compression).
func NewQuantileSketch(compression float64) *QuantileSketch {
	if compression <= 0 {
		compression = DefaultSketchCompression
	}
	return &QuantileSketch{
		compression: compression,
		minSeen:     math.Inf(1),
		maxSeen:     math.Inf(-1),
	}
}

// Add folds one value into the sketch.
func (q *QuantileSketch) Add(x float64) {
	if x < q.minSeen {
		q.minSeen = x
	}
	if x > q.maxSeen {
		q.maxSeen = x
	}
	q.n++
	if q.buf == nil {
		q.buf = make([]float64, 0, 4*int(q.compression))
	}
	q.buf = append(q.buf, x)
	if len(q.buf) == cap(q.buf) {
		q.flush()
	}
}

// AddSlice folds every element of xs into the sketch.
func (q *QuantileSketch) AddSlice(xs []float64) {
	for _, x := range xs {
		q.Add(x)
	}
}

// AddSorted folds an ascending-sorted run of values into the sketch,
// bypassing the per-value buffer entirely. This is the hot-path
// ingestion used by the streaming accumulators, which sort each
// observation block once anyway (for median extraction) and hand the
// sorted scratch straight down. xs must be sorted ascending; xs is not
// retained. A sketch fed exclusively through AddSorted never allocates
// the Add buffer.
//
// Small runs are not folded immediately: they buffer until roughly
// 8·compression values are pending, then combine pairwise (branchless
// sortx.MergeRuns passes) into one ascending run that merges with the
// centroid list in a single compressing sweep. Folding a run of k
// values costs a pass over all ~centroids+k entries, so batching
// amortises the centroid sweep over several blocks — at the streaming
// accumulators' geometry (48-thread blocks, compression 32, ~150
// steady centroids) it cuts sweep iterations per value by ~2.5x.
func (q *QuantileSketch) AddSorted(xs []float64) {
	if len(xs) == 0 {
		return
	}
	q.flushBuf() // interleaved Add calls must land before this run
	if xs[0] < q.minSeen {
		q.minSeen = xs[0]
	}
	if xs[len(xs)-1] > q.maxSeen {
		q.maxSeen = xs[len(xs)-1]
	}
	q.n += int64(len(xs))
	limit := 8 * int(q.compression)
	if len(xs) >= limit {
		// A run this large amortises its own sweep; fold it directly
		// (pending runs first, to keep ingestion order).
		q.flushPending()
		q.mergeRun(xs)
		return
	}
	if len(q.pending)+len(xs) > limit {
		q.flushPending()
	}
	if q.pending == nil {
		q.pending = make([]float64, 0, limit)
	}
	q.pending = append(q.pending, xs...)
	q.runEnds = append(q.runEnds, len(q.pending))
}

// flushPending combines the buffered sorted runs into one ascending run
// and folds it into the centroid list.
func (q *QuantileSketch) flushPending() {
	switch len(q.runEnds) {
	case 0:
		return
	case 1:
		q.mergeRun(q.pending)
	default:
		n := len(q.pending)
		if cap(q.mscratch) < n {
			q.mscratch = make([]float64, n)
		}
		src, dst := q.pending, q.mscratch[:n]
		ends := q.runEnds
		for m := len(ends); m > 1; src, dst = dst, src {
			w := 0
			for r := 0; r < m; r += 2 {
				start := 0
				if r > 0 {
					start = ends[r-1] // not yet overwritten: w-1 < r-1 for r >= 2
				}
				if r+1 == m {
					copy(dst[start:ends[r]], src[start:ends[r]])
					ends[w] = ends[r]
				} else {
					mid, end := ends[r], ends[r+1]
					sortx.MergeRuns(dst[start:end], src[start:mid], src[mid:end])
					ends[w] = end
				}
				w++
			}
			m = w
		}
		q.mergeRun(src)
	}
	q.pending = q.pending[:0]
	q.runEnds = q.runEnds[:0]
}

// Merge folds another sketch into this one. o's buffered values are
// compressed as a side effect, but its distribution is unchanged; the
// merged sketch keeps both error bounds. Both centroid lists are
// already sorted, so the merge is a single linear pass with inline
// compression — no comparison sort.
func (q *QuantileSketch) Merge(o *QuantileSketch) {
	if o == nil || o.n == 0 {
		return
	}
	o.flush()
	q.flush()
	if o.minSeen < q.minSeen {
		q.minSeen = o.minSeen
	}
	if o.maxSeen > q.maxSeen {
		q.maxSeen = o.maxSeen
	}
	q.n += o.n
	cs, os := q.centroids, o.centroids
	total := float64(q.n)
	merged := q.scratch[:0]
	var cur centroid
	var cum float64
	first := true
	i, j := 0, 0
	for i < len(cs) || j < len(os) {
		var next centroid
		if j >= len(os) || (i < len(cs) && cs[i].mean <= os[j].mean) {
			next = cs[i]
			i++
		} else {
			next = os[j]
			j++
		}
		if first {
			cur, first = next, false
			continue
		}
		sum := cur.count + next.count
		if fits(cum, sum, total, q.compression) {
			cur.mean += float64(next.count) / float64(sum) * (next.mean - cur.mean)
			cur.count = sum
		} else {
			merged = append(merged, cur)
			cum += float64(cur.count)
			cur = next
		}
	}
	if !first {
		merged = append(merged, cur)
	}
	q.scratch = q.centroids[:0]
	q.centroids = merged
}

// flush compresses everything buffered — per-value adds and pending
// sorted runs — into the centroid list, so readers and merges see the
// full distribution.
func (q *QuantileSketch) flush() {
	q.flushBuf()
	q.flushPending()
}

// flushBuf compresses per-value buffered adds into the centroid list.
// The buffer is sorted and merged in a single pass; steady-state
// flushes allocate nothing (the previous centroid array becomes the
// next merge buffer).
func (q *QuantileSketch) flushBuf() {
	if len(q.buf) == 0 {
		return
	}
	sortx.Sort(q.buf)
	q.mergeRun(q.buf)
	q.buf = q.buf[:0]
}

// fits reports whether a cluster of weight sum, preceded by cum mass,
// respects the t-digest size bound 4·N·q·(1-q)/compression. The check
// is the classic limit rewritten multiplication-only:
//
//	sum ≤ 4·total·mid·(1-mid)/compression,  mid = (cum + sum/2)/total
//	⟺ sum·total·compression ≤ 4·(cum+sum/2)·(total-(cum+sum/2))
//
// which drops two divisions from the innermost loop of every merge.
// Weight-1 pairs always fit (the historical max(1, limit) floor).
func fits(cum float64, sum int64, total, compression float64) bool {
	if sum <= 1 {
		return true
	}
	s := float64(sum)
	mid := cum + s/2
	return s*total*compression <= 4*mid*(total-mid)
}

// mergeRun merges an ascending run of raw values with the sorted
// centroid list, applying the weight bound inline: one pass replaces
// the historical merge-then-compress two-pass. q.n must already count
// the run's values.
func (q *QuantileSketch) mergeRun(xs []float64) {
	cs := q.centroids
	total := float64(q.n)
	merged := q.scratch[:0]
	if need := len(cs) + len(xs); cap(merged) < need {
		// need is the no-compression worst case. Seeding the capacity at
		// several times the compression — the steady-state centroid
		// count is Θ(compression·log n) — means each sketch allocates
		// its two swap buffers once and then runs allocation-free,
		// instead of doubling its way up call by call.
		seed := 8 * int(q.compression)
		if 2*need > seed {
			seed = 2 * need
		}
		merged = make([]centroid, 0, seed)
	}
	var cur centroid
	var cum float64 // mass strictly before cur
	first := true
	i, j := 0, 0
	for i < len(cs) || j < len(xs) {
		var next centroid
		if j >= len(xs) || (i < len(cs) && cs[i].mean <= xs[j]) {
			next = cs[i]
			i++
		} else {
			next = centroid{mean: xs[j], count: 1}
			j++
		}
		if first {
			cur, first = next, false
			continue
		}
		sum := cur.count + next.count
		if fits(cum, sum, total, q.compression) {
			// Weighted-mean absorb.
			cur.mean += float64(next.count) / float64(sum) * (next.mean - cur.mean)
			cur.count = sum
		} else {
			merged = append(merged, cur)
			cum += float64(cur.count)
			cur = next
		}
	}
	if !first {
		merged = append(merged, cur)
	}
	q.scratch = q.centroids[:0] // old list becomes the next merge buffer
	q.centroids = merged
}

// Quantile returns the estimated p-quantile for p in [0, 1], interpolating
// between centroid centers and anchored at the exact min/max. NaN when
// empty.
func (q *QuantileSketch) Quantile(p float64) float64 {
	q.flush()
	if q.n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return q.minSeen
	}
	if p >= 1 {
		return q.maxSeen
	}
	cs := q.centroids
	if len(cs) == 1 {
		return cs[0].mean
	}
	target := p * float64(q.n)
	cum := 0.0
	for i, c := range cs {
		center := cum + float64(c.count)/2
		if target <= center {
			if i == 0 {
				frac := target / center
				return q.minSeen + frac*(c.mean-q.minSeen)
			}
			prev := cs[i-1]
			prevCenter := cum - float64(prev.count)/2
			frac := (target - prevCenter) / (center - prevCenter)
			return prev.mean + frac*(c.mean-prev.mean)
		}
		cum += float64(c.count)
	}
	last := cs[len(cs)-1]
	lastCenter := float64(q.n) - float64(last.count)/2
	frac := (target - lastCenter) / (float64(q.n) - lastCenter)
	if frac > 1 {
		frac = 1
	}
	return last.mean + frac*(q.maxSeen-last.mean)
}

// Percentile returns the estimated p-th percentile (0 <= p <= 100),
// mirroring Percentile in desc.go.
func (q *QuantileSketch) Percentile(p float64) float64 { return q.Quantile(p / 100) }

// IQR returns the estimated inter-quartile range.
func (q *QuantileSketch) IQR() float64 { return q.Quantile(0.75) - q.Quantile(0.25) }

// StreamSummary assembles a Summary from streaming accumulators: exact
// N/mean/stddev/min/max/skewness/kurtosis from the moments, estimated
// percentiles from the sketch.
func StreamSummary(m *Moments, q *QuantileSketch) Summary {
	return Summary{
		N:        int(m.N()),
		Mean:     m.Mean(),
		StdDev:   m.StdDev(),
		Min:      m.Min(),
		P5:       q.Percentile(5),
		P25:      q.Percentile(25),
		Median:   q.Percentile(50),
		P75:      q.Percentile(75),
		P95:      q.Percentile(95),
		Max:      m.Max(),
		IQR:      q.IQR(),
		Skewness: m.Skewness(),
		Kurtosis: m.Kurtosis(),
	}
}
