package analysis

import (
	"fmt"

	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// idleTime returns the paper's two idle quantities for one process
// iteration xs whose latest arrival is max (Section 4.2): the reclaimable
// time, the sum over threads of (latest arrival − this thread's arrival),
// which is the thread-time early-bird communication could in principle
// put to use; and the idle ratio, that sum over (max × thread count). The
// reclaimable sum is Σ(max − x) in sample order; the algebraically equal
// n·max − Σx rounds differently.
func idleTime(xs []float64, max float64) (recl, ratio float64) {
	for _, x := range xs {
		recl += max - x
	}
	if max <= 0 {
		return recl, 0
	}
	return recl, recl / (max * float64(len(xs)))
}

// AppMetrics collects the scalar quantities Section 4.2 reports per
// application. The paper's definitions of the two idle metrics are
// mutually inconsistent under a single aggregation level (see DESIGN.md),
// so both metrics are computed at both levels.
type AppMetrics struct {
	App string `json:"app"`
	// MeanMedianSec is the mean over process iterations of the median
	// thread arrival time (paper: 26.30 / 24.74 / 60.91 ms).
	MeanMedianSec float64 `json:"mean_median_sec"`
	// LaggardFraction is the fraction of process iterations whose latest
	// thread is more than 1 ms past the median (paper: 22.4% MiniFE,
	// 4.8% MiniMD phase two).
	LaggardFraction float64 `json:"laggard_fraction"`
	// AvgReclaimableProcSec is the mean over process iterations of the
	// reclaimable time (see idleTime; paper: 42.82 / 17.61 / 708.03 ms).
	AvgReclaimableProcSec float64 `json:"avg_reclaimable_proc_sec"`
	// IdleRatioProc is the mean over process iterations of the idle ratio.
	IdleRatioProc float64 `json:"idle_ratio_proc"`
	// AvgReclaimableAppIterSec and IdleRatioAppIter are the same metrics
	// computed over application-iteration aggregations (3840 samples).
	AvgReclaimableAppIterSec float64 `json:"avg_reclaimable_app_iter_sec"`
	IdleRatioAppIter         float64 `json:"idle_ratio_app_iter"`
	// IQRMeanSec and IQRMaxSec summarise the application-iteration IQR
	// across iterations (the quantities read off Figures 4, 6 and 8).
	IQRMeanSec float64 `json:"iqr_mean_sec"`
	IQRMaxSec  float64 `json:"iqr_max_sec"`
}

// IQRToMedian returns the width discriminant of the Section 5
// classification: the mean iteration IQR over the mean median arrival,
// or zero when the median is not positive.
func (m AppMetrics) IQRToMedian() float64 {
	if m.MeanMedianSec <= 0 {
		return 0
	}
	return m.IQRMeanSec / m.MeanMedianSec
}

// ComputeMetrics derives AppMetrics for the whole dataset.
func ComputeMetrics(d *trace.Dataset, laggardThreshold float64) AppMetrics {
	return ComputeMetricsInRange(d, laggardThreshold, 0, d.Iterations)
}

// ComputeMetricsInRange derives AppMetrics restricted to iterations in
// [fromIter, toIter), for phase-wise analysis (MiniMD). Every field is
// exact: each process iteration is sorted once in a reused scratch, and
// each application iteration is gathered in (trial, rank, thread) order
// into one reused buffer whose quartiles are selected, not sorted.
func ComputeMetricsInRange(d *trace.Dataset, laggardThreshold float64, fromIter, toIter int) AppMetrics {
	m := AppMetrics{App: d.App}
	nProc := 0
	medianSum, reclSum, ratioSum := 0.0, 0.0, 0.0
	laggards := 0
	var bs blockSorter
	cur := d.CursorRange(fromIter, toIter)
	for cur.Next() {
		xs := cur.Block().Times
		nProc++
		max, med := bs.maxMedian(xs)
		medianSum += med
		recl, ratio := idleTime(xs, max)
		reclSum += recl
		ratioSum += ratio
		if max-med > laggardThreshold {
			laggards++
		}
	}
	if nProc > 0 {
		m.MeanMedianSec = medianSum / float64(nProc)
		m.LaggardFraction = float64(laggards) / float64(nProc)
		m.AvgReclaimableProcSec = reclSum / float64(nProc)
		m.IdleRatioProc = ratioSum / float64(nProc)
	}

	nIter := 0
	reclAppSum, ratioAppSum, iqrSum := 0.0, 0.0, 0.0
	iqrMax := 0.0
	xs := make([]float64, 0, d.Trials*d.Ranks*d.Threads)
	for i := cur.FromIter(); i < cur.ToIter(); i++ {
		xs = xs[:0]
		for t := 0; t < d.Trials; t++ {
			for r := 0; r < d.Ranks; r++ {
				xs = append(xs, d.Block(t, r, i)...)
			}
		}
		nIter++
		recl, ratio := idleTime(xs, stats.Max(xs))
		reclAppSum += recl
		ratioAppSum += ratio
		iqr := stats.IQRSelect(xs)
		iqrSum += iqr
		if iqr > iqrMax {
			iqrMax = iqr
		}
	}
	if nIter > 0 {
		m.AvgReclaimableAppIterSec = reclAppSum / float64(nIter)
		m.IdleRatioAppIter = ratioAppSum / float64(nIter)
		m.IQRMeanSec = iqrSum / float64(nIter)
		m.IQRMaxSec = iqrMax
	}
	return m
}

// String renders the metrics in milliseconds, as the paper reports them.
func (m AppMetrics) String() string {
	return fmt.Sprintf(
		"%s: mean median %.2f ms, laggard iterations %.1f%%, "+
			"avg reclaimable (process) %.2f ms, idle ratio (process) %.4f, "+
			"avg reclaimable (app-iter) %.2f ms, idle ratio (app-iter) %.4f, "+
			"IQR mean %.2f ms, IQR max %.2f ms",
		m.App, 1e3*m.MeanMedianSec, 100*m.LaggardFraction,
		1e3*m.AvgReclaimableProcSec, m.IdleRatioProc,
		1e3*m.AvgReclaimableAppIterSec, m.IdleRatioAppIter,
		1e3*m.IQRMeanSec, 1e3*m.IQRMaxSec)
}
