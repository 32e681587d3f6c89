package partcomm

import (
	"fmt"

	"earlybird/internal/network"
	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// Strategy is a message-delivery policy evaluated over one process
// iteration: given the sorted thread arrival times (seconds, one
// partition per thread) it returns the time at which the full buffer has
// been delivered over the fabric.
type Strategy interface {
	Name() string
	// FinishTime computes delivery completion. arrivals must be sorted
	// ascending; bytesPerPart is one partition's payload.
	FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64
}

// Bulk models the traditional BSP pattern: the whole buffer is sent as
// one message after the last thread arrives (the fork/join baseline the
// paper's Figure 1 contrasts against).
type Bulk struct{}

// Name implements Strategy.
func (Bulk) Name() string { return "bulk" }

// FinishTime implements Strategy.
func (Bulk) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	tmax := arrivals[len(arrivals)-1]
	return tmax + f.TransferTime(bytesPerPart*len(arrivals))
}

// FineGrained is per-partition early-bird delivery: every partition is
// injected the moment its thread arrives, serialising on the link.
type FineGrained struct{}

// Name implements Strategy.
func (FineGrained) Name() string { return "finegrained" }

// FinishTime implements Strategy.
func (FineGrained) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	link := network.NewLink(f)
	done := 0.0
	for _, t := range arrivals {
		if d := link.Send(t, bytesPerPart); d > done {
			done = d
		}
	}
	return done
}

// Binned aggregates ready partitions and flushes them as one message per
// timeout window (the "binning model for aggregating data" of Section 5),
// plus a final flush when the last thread arrives.
type Binned struct {
	// TimeoutSec is the flush period (> 0).
	TimeoutSec float64
}

// Name implements Strategy.
func (b Binned) Name() string { return fmt.Sprintf("binned(%gus)", b.TimeoutSec*1e6) }

// FinishTime implements Strategy.
func (b Binned) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	if b.TimeoutSec <= 0 {
		return (Bulk{}).FinishTime(arrivals, bytesPerPart, f)
	}
	link := network.NewLink(f)
	done := 0.0
	i := 0
	tmax := arrivals[len(arrivals)-1]
	for flush := arrivals[0] + b.TimeoutSec; i < len(arrivals); flush += b.TimeoutSec {
		if flush > tmax {
			flush = tmax
		}
		count := 0
		for i+count < len(arrivals) && arrivals[i+count] <= flush {
			count++
		}
		if count > 0 {
			if d := link.Send(flush, bytesPerPart*count); d > done {
				done = d
			}
			i += count
		}
	}
	return done
}

// Result summarises one strategy over a dataset.
type Result struct {
	Strategy string `json:"strategy"`
	// MeanFinishSec is the mean delivery-completion time per process
	// iteration.
	MeanFinishSec float64 `json:"mean_finish_sec"`
	// MeanOverlapSec is the mean of (bulk finish - strategy finish): the
	// communication time recovered by early-bird delivery (the green
	// boxes of the paper's Figure 2).
	MeanOverlapSec float64 `json:"mean_overlap_sec"`
	// SpeedupVsBulk is mean bulk finish / mean strategy finish.
	SpeedupVsBulk float64 `json:"speedup_vs_bulk"`
	// OverlapCapture is MeanOverlapSec divided by the study's mean
	// idealised per-thread overlap (PotentialOverlap): the fraction of
	// the theoretically reclaimable idle time the strategy recovers.
	// Zero when the potential is zero. Values above 1 are possible —
	// pipelining partitions onto the link also shortens the transfer
	// itself, a gain the per-thread idle bound does not count.
	OverlapCapture float64 `json:"overlap_capture,omitempty"`
}

// Evaluate runs each strategy over every process iteration of the
// dataset, with one partition per thread of bytesPerPart bytes.
//
// Deprecated: Evaluate is a thin adapter over the cursor-native
// EvaluateStream. New code should call EvaluateStream (or
// StrategyAccumulator) on a trace.Cursor directly.
func Evaluate(d *trace.Dataset, bytesPerPart int, f network.Fabric, strategies []Strategy) []Result {
	return EvaluateStream(d.Cursor(), bytesPerPart, f, strategies)
}

// evaluateMaterialized is the pre-cursor implementation, retained as the
// independent reference the streaming-vs-exact agreement tests and the
// BenchmarkStrategySweep baseline compare against.
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

// PotentialOverlap returns, for one process iteration, the idealised
// transmission time available before the last thread arrives if every
// partition could be sent immediately on arrival with an infinitely fast
// link — an upper bound on early-bird benefit equal to the paper's
// reclaimable time divided by the thread count.
func PotentialOverlap(arrivals []float64) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	tmax := stats.Max(arrivals)
	sum := 0.0
	for _, t := range arrivals {
		sum += tmax - t
	}
	return sum / float64(len(arrivals))
}

// String renders a result row in microseconds/milliseconds as
// appropriate.
func (r Result) String() string {
	return fmt.Sprintf("%-16s finish %8.3f ms  overlap %8.3f ms  speedup %5.3fx",
		r.Strategy, 1e3*r.MeanFinishSec, 1e3*r.MeanOverlapSec, r.SpeedupVsBulk)
}
