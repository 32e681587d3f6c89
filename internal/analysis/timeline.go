package analysis

import (
	"fmt"
	"strings"

	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// LaggardTimeline counts, for every application iteration, how many of
// its process iterations (trials x ranks) contain a laggard — the
// "sporadic laggard threads" visible along the x-axis of the paper's
// Figure 6 percentile plot.
type LaggardTimeline struct {
	// Counts[i] is the number of (trial, rank) pairs whose iteration i
	// contains a laggard.
	Counts []int
	// PerIteration is trials x ranks (the denominator for each count).
	PerIteration int
	ThresholdSec float64
}

// NewLaggardTimeline scans the dataset.
func NewLaggardTimeline(d *trace.Dataset, threshold float64) *LaggardTimeline {
	tl := &LaggardTimeline{
		Counts:       make([]int, d.Iterations),
		PerIteration: d.Trials * d.Ranks,
		ThresholdSec: threshold,
	}
	var bs blockSorter
	for cur := d.Cursor(); cur.Next(); {
		b := cur.Block()
		if bs.hasLaggard(b.Times, threshold) {
			tl.Counts[b.Iter]++
		}
	}
	return tl
}

// ActiveIterations returns how many iterations have at least one laggard.
func (tl *LaggardTimeline) ActiveIterations() int {
	n := 0
	for _, c := range tl.Counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// Burstiness returns the ratio of the variance of per-iteration counts
// to their mean (the dispersion index). A Poisson-like sporadic process
// scores ~1; clustered laggards score higher; a constant rate scores
// lower.
func (tl *LaggardTimeline) Burstiness() float64 {
	xs := make([]float64, len(tl.Counts))
	for i, c := range tl.Counts {
		xs[i] = float64(c)
	}
	mean := stats.Mean(xs)
	if mean == 0 {
		return 0
	}
	return stats.Variance(xs) / mean
}

// CSV renders "iteration,laggard_count" rows.
func (tl *LaggardTimeline) CSV() string {
	var b strings.Builder
	b.WriteString("iteration,laggard_count\n")
	for i, c := range tl.Counts {
		fmt.Fprintf(&b, "%d,%d\n", i, c)
	}
	return b.String()
}
