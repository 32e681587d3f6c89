package analysis

import (
	"math"

	"earlybird/internal/sortx"
	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// DefaultLaggardThresholdSec is the paper's laggard rule: a process
// iteration contains a laggard when its latest thread arrives more than
// 1 ms after the median thread (chosen as roughly 5% of the median
// arrival time, Section 4.2.1).
const DefaultLaggardThresholdSec = 1e-3

// HasLaggard reports whether the latest arrival exceeds the median by
// more than threshold seconds.
func HasLaggard(xs []float64, threshold float64) bool {
	var bs blockSorter
	return bs.hasLaggard(xs, threshold)
}

// blockSorter is the per-block kernel of every exact max/median
// consumer: it copies a process iteration into one reused scratch and
// sorts it there, so a pass over a dataset allocates once instead of
// once per block. The zero value is ready to use.
type blockSorter struct{ buf []float64 }

// sort returns a sorted copy of xs, valid until the next call.
func (b *blockSorter) sort(xs []float64) []float64 {
	b.buf = append(b.buf[:0], xs...)
	sortx.Sort(b.buf)
	return b.buf
}

// maxMedian returns the latest arrival and the median of xs (NaN for an
// empty block, as stats.Max and stats.Median return).
func (b *blockSorter) maxMedian(xs []float64) (max, med float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := b.sort(xs)
	return s[len(s)-1], stats.PercentileSorted(s, 50)
}

// hasLaggard is HasLaggard on the reused scratch.
func (b *blockSorter) hasLaggard(xs []float64, threshold float64) bool {
	max, med := b.maxMedian(xs)
	return max-med > threshold
}

// LaggardStats summarises laggard occurrence over all process iterations
// of a dataset.
type LaggardStats struct {
	Total       int
	WithLaggard int
	// Fraction = WithLaggard / Total (paper: 22.4% MiniFE, 4.8% MiniMD
	// phase two).
	Fraction float64
	// MeanMagnitudeSec is the mean of (max - median) over laggard
	// iterations only.
	MeanMagnitudeSec float64
}

// Laggards classifies every process iteration of d with the given
// threshold.
func Laggards(d *trace.Dataset, threshold float64) LaggardStats {
	return LaggardsInRange(d, threshold, 0, d.Iterations)
}

// LaggardsInRange classifies process iterations with iteration index in
// [fromIter, toIter) — used to analyse MiniMD's two phases separately.
func LaggardsInRange(d *trace.Dataset, threshold float64, fromIter, toIter int) LaggardStats {
	return LaggardsStream(d.CursorRange(fromIter, toIter), threshold)
}

// LaggardsStream classifies every process iteration yielded by the
// cursor in O(threads) live memory. Strategy-lab consumers use it to
// tune laggard-aware delivery in one pass; Laggards and LaggardsInRange
// are this pass over the dataset's cursor.
func LaggardsStream(cur *trace.Cursor, threshold float64) LaggardStats {
	var st LaggardStats
	magSum := 0.0
	var bs blockSorter
	for cur.Next() {
		st.Total++
		max, med := bs.maxMedian(cur.Block().Times)
		if mag := max - med; mag > threshold {
			st.WithLaggard++
			magSum += mag
		}
	}
	if st.Total > 0 {
		st.Fraction = float64(st.WithLaggard) / float64(st.Total)
	}
	if st.WithLaggard > 0 {
		st.MeanMagnitudeSec = magSum / float64(st.WithLaggard)
	}
	return st
}

// FindExampleIterations returns the coordinates of one process iteration
// with a laggard and one without, for rendering the paper's example
// histograms (Figures 5 and 7). Either return value may be nil if no such
// iteration exists in [fromIter, toIter).
func FindExampleIterations(d *trace.Dataset, threshold float64, fromIter, toIter int) (withLaggard, without []int) {
	var bs blockSorter
	for cur := d.CursorRange(fromIter, toIter); cur.Next(); {
		b := cur.Block()
		if bs.hasLaggard(b.Times, threshold) {
			if withLaggard == nil {
				withLaggard = []int{b.Trial, b.Rank, b.Iter}
			}
		} else if without == nil {
			without = []int{b.Trial, b.Rank, b.Iter}
		}
	}
	return withLaggard, without
}
