package analysis

import (
	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// LoadBalance returns the POP Centre of Excellence Load Balance metric
// for one sample set: mean(execution time) / max(execution time). A
// perfectly balanced region scores 1; the lower the score the more time
// is lost waiting for the slowest participant. The paper's related work
// (Orland & Terboven) extends this process metric to threads; here it is
// applied to thread compute times directly.
func LoadBalance(xs []float64) float64 {
	max := stats.Max(xs)
	if max <= 0 {
		return 0
	}
	return stats.Mean(xs) / max
}

// LoadBalanceStats summarises the per-process-iteration Load Balance of
// a dataset.
type LoadBalanceStats struct {
	Mean float64
	Min  float64
	P5   float64
}

// DatasetLoadBalance computes LoadBalanceStats over every process
// iteration. Note the identity LB = 1 - IdleRatio for the same sample
// set: the two metrics are complementary views of the same idle time.
func DatasetLoadBalance(d *trace.Dataset) LoadBalanceStats {
	vals := make([]float64, 0, d.NumProcessIterations())
	for cur := d.Cursor(); cur.Next(); {
		vals = append(vals, LoadBalance(cur.Block().Times))
	}
	sorted := stats.Sorted(vals)
	return LoadBalanceStats{
		Mean: stats.Mean(vals),
		Min:  stats.Min(vals),
		P5:   stats.PercentileSorted(sorted, 5),
	}
}
