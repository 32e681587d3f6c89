package partcomm

import (
	"earlybird/internal/network"
	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// evaluateMaterialized is the pre-cursor implementation of
// EvaluateStream, kept as the independent reference the
// streaming-vs-exact agreement tests and the BenchmarkStrategySweep
// baseline compare against.
func evaluateMaterialized(d *trace.Dataset, bytesPerPart int, f network.Fabric, strategies []Strategy) []Result {
	for _, s := range strategies {
		if r, ok := s.(resettable); ok {
			r.Reset()
		}
	}
	results := make([]Result, len(strategies))
	bulkSum := 0.0
	finishSums := make([]float64, len(strategies))
	potentialSum := 0.0
	n := 0
	bulk := Bulk{}
	for cur := d.Cursor(); cur.Next(); {
		arrivals := stats.Sorted(cur.Block().Times)
		bulkFinish := bulk.FinishTime(arrivals, bytesPerPart, f)
		bulkSum += bulkFinish
		potentialSum += PotentialOverlap(arrivals)
		for k, s := range strategies {
			finishSums[k] += s.FinishTime(arrivals, bytesPerPart, f)
		}
		n++
	}
	for k, s := range strategies {
		r := Result{Strategy: s.Name()}
		if n > 0 {
			r.MeanFinishSec = finishSums[k] / float64(n)
			meanBulk := bulkSum / float64(n)
			r.MeanOverlapSec = meanBulk - r.MeanFinishSec
			if r.MeanFinishSec > 0 {
				r.SpeedupVsBulk = meanBulk / r.MeanFinishSec
			}
			if potential := potentialSum / float64(n); potential > 0 {
				r.OverlapCapture = r.MeanOverlapSec / potential
			}
		}
		results[k] = r
	}
	return results
}
