package analysis

import (
	"fmt"
	"strings"

	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// DefaultPercentiles are the series plotted in the paper's Figures 4, 6
// and 8 (legend values correspond to percentiles of the collected thread
// execution times).
var DefaultPercentiles = []float64{1, 5, 25, 50, 75, 95, 99}

// PercentileSeries is a per-application-iteration percentile plot: for
// each iteration, the requested percentiles of that iteration's 3840
// aggregated samples.
type PercentileSeries struct {
	App         string
	Percentiles []float64
	// Values[i][p] is the Percentiles[p]-th percentile of iteration i,
	// in seconds.
	Values [][]float64
}

// IterationPercentiles builds the percentile series of a dataset.
func IterationPercentiles(d *trace.Dataset, percentiles []float64) *PercentileSeries {
	if len(percentiles) == 0 {
		percentiles = DefaultPercentiles
	}
	ps := &PercentileSeries{App: d.App, Percentiles: percentiles}
	ps.Values = make([][]float64, d.Iterations)
	for i := 0; i < d.Iterations; i++ {
		sorted := stats.Sorted(d.IterationSamples(i))
		row := make([]float64, len(percentiles))
		for k, p := range percentiles {
			row[k] = stats.PercentileSorted(sorted, p)
		}
		ps.Values[i] = row
	}
	return ps
}

// pIndex locates a percentile column.
func (ps *PercentileSeries) pIndex(p float64) int {
	for i, q := range ps.Percentiles {
		if q == p {
			return i
		}
	}
	return -1
}

// IQRStats returns the mean and max of (p75 - p25) across iterations in
// [fromIter, toIter) — the quantities the paper reads off its percentile
// plots. Both 25 and 75 must be in Percentiles.
func (ps *PercentileSeries) IQRStats(fromIter, toIter int) (mean, max float64) {
	i25, i75 := ps.pIndex(25), ps.pIndex(75)
	if i25 < 0 || i75 < 0 {
		return 0, 0
	}
	if fromIter < 0 {
		fromIter = 0
	}
	if toIter > len(ps.Values) {
		toIter = len(ps.Values)
	}
	n := 0
	for i := fromIter; i < toIter; i++ {
		iqr := ps.Values[i][i75] - ps.Values[i][i25]
		mean += iqr
		if iqr > max {
			max = iqr
		}
		n++
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, max
}

// SkewAsymmetry returns the mean of (median - p5) - (p95 - median) across
// iterations: positive values mean the lower tail is longer — the paper's
// observation that MiniFE's early arrivals are more common than late ones.
func (ps *PercentileSeries) SkewAsymmetry() float64 {
	i5, i50, i95 := ps.pIndex(5), ps.pIndex(50), ps.pIndex(95)
	if i5 < 0 || i50 < 0 || i95 < 0 {
		return 0
	}
	sum := 0.0
	for _, row := range ps.Values {
		sum += (row[i50] - row[i5]) - (row[i95] - row[i50])
	}
	return sum / float64(len(ps.Values))
}

// CSV renders the series with one row per iteration, times in the given
// unit (e.g. 1e-3 for milliseconds).
func (ps *PercentileSeries) CSV(unit float64) string {
	var b strings.Builder
	b.WriteString("iteration")
	for _, p := range ps.Percentiles {
		fmt.Fprintf(&b, ",p%g", p)
	}
	b.WriteByte('\n')
	for i, row := range ps.Values {
		fmt.Fprintf(&b, "%d", i)
		for _, v := range row {
			fmt.Fprintf(&b, ",%.6g", v/unit)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
