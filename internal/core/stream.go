package core

import (
	"fmt"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/stats"
)

// StreamResult is the outcome of a streaming study: the Section 4.2
// scalar metrics, the Table 1 normality row, and application-level sample
// moments and quantiles — everything computed online while the samples
// were produced, none of it requiring the dataset to be held in memory.
// Live sample memory during the run is O(workers x threads); accumulator
// state is O(iterations).
//
// Exactness: Table1, the moments and all process-level metrics are
// exactly what the materialised pipeline computes; the iteration IQR
// statistics (IQRMeanSec, IQRMaxSec) and the percentile estimates of
// Summary carry the quantile sketch's documented tolerance (rank error
// ≲1%, a few percent of the IQR in value for these distributions).
type StreamResult struct {
	App      string
	Geometry cluster.Config
	// Metrics is the Section 4.2 row (IQR fields sketch-estimated).
	Metrics analysis.AppMetrics
	// Table1 is the process-iteration normality row (exact).
	Table1 analysis.Table1
	// Moments holds the application-level sample moments (exact).
	Moments stats.Moments
	// Quantiles sketches the application-level arrival distribution.
	Quantiles *stats.QuantileSketch
}

// Samples returns the total number of samples the study produced.
func (r *StreamResult) Samples() int64 { return r.Moments.N() }

// Summary assembles the application-level descriptive statistics from the
// streaming accumulators.
func (r *StreamResult) Summary() stats.Summary {
	return stats.StreamSummary(&r.Moments, r.Quantiles)
}

// String renders the headline streaming results.
func (r *StreamResult) String() string {
	return fmt.Sprintf("streamed %s: %d samples\n%v\n%v",
		r.App, r.Samples(), r.Metrics, r.Table1)
}

// streamObserver bundles the per-worker accumulators of a streaming
// study. Each fill worker owns one, so no locking is needed; the workers'
// observers merge after the run.
type streamObserver struct {
	metrics *analysis.MetricsAccumulator
	table1  *analysis.Table1Accumulator
	moments stats.Moments
	sketch  *stats.QuantileSketch
}

func (o *streamObserver) ObserveBlock(trial, rank, iter int, xs []float64) {
	o.metrics.ObserveBlock(trial, rank, iter, xs)
	if o.table1 != nil {
		o.table1.ObserveBlock(trial, rank, iter, xs)
	}
	if o.sketch != nil {
		o.moments.AddSlice(xs)
		o.sketch.AddSlice(xs)
	}
}

func (o *streamObserver) merge(other *streamObserver) {
	o.metrics.Merge(other.metrics)
	if o.table1 != nil {
		o.table1.Merge(other.table1)
	}
	if o.sketch != nil {
		o.moments.Merge(&other.moments)
		o.sketch.Merge(other.sketch)
	}
}

// streamRun executes the study online with per-worker observers and
// merges them.
func streamRun(opts Options, withTable1, withSummary bool) (*StreamResult, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	newObs := func() cluster.BlockObserver {
		o := &streamObserver{
			metrics: analysis.NewMetricsAccumulator(opts.Model.Name(), opts.Policy.LaggardThresholdSec),
		}
		if withTable1 {
			o.table1 = analysis.NewTable1Accumulator(opts.Model.Name(), opts.Policy.Alpha)
		}
		if withSummary {
			o.sketch = stats.NewQuantileSketch(0)
		}
		return o
	}
	observers, err := cluster.Fill(cluster.Job{Model: opts.Model, Config: opts.Geometry,
		Policy: opts.Policy.DLB, NewObserver: newObs, Progress: opts.Progress})
	if err != nil {
		return nil, err
	}
	root := observers[0].(*streamObserver)
	for _, o := range observers[1:] {
		root.merge(o.(*streamObserver))
	}
	res := &StreamResult{
		App:      opts.Model.Name(),
		Geometry: opts.Geometry,
		Metrics:  root.metrics.Finalize(),
	}
	if withTable1 {
		res.Table1 = root.table1.Finalize()
	}
	if withSummary {
		res.Moments = root.moments
		res.Quantiles = root.sketch
	}
	return res, nil
}

// StreamStudy runs the configured study in streaming mode: samples feed
// mergeable accumulators the moment they are produced and are then
// discarded, so studies at geometries far beyond the paper's (see
// cluster.HugeConfig) run in bounded memory. It computes the Section 4.2
// metrics, the Table 1 normality row and the application-level summary.
func StreamStudy(opts Options) (*StreamResult, error) {
	return streamRun(opts, true, true)
}

// StreamMetrics runs the configured study in streaming mode and computes
// only the Section 4.2 scalar metrics — the cheapest full-study analysis
// path, and the direct streaming counterpart of
// NewStudy(opts).Metrics().
func StreamMetrics(opts Options) (analysis.AppMetrics, error) {
	res, err := streamRun(opts, false, false)
	if err != nil {
		return analysis.AppMetrics{}, err
	}
	return res.Metrics, nil
}
