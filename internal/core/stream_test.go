package core

import (
	"math"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
)

// approxEqual reports whether a and b agree within relative tolerance
// tol (absolute below 1e-12).
func approxEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d < 1e-12 {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestStreamStudyMatchesMaterialized: every streaming quantity must agree
// with the materialised pipeline — exactly for the process-level metrics,
// the app-iteration reclaimable/idle metrics, the Table 1 row and the
// moments; within the documented sketch tolerance (10% relative here, at
// a small geometry where per-iteration sketches see few samples) for the
// IQR statistics.
func TestStreamStudyMatchesMaterialized(t *testing.T) {
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		t.Run(app, func(t *testing.T) {
			opts := Options{App: app, Geometry: cluster.SmallConfig()}
			streamed, err := StreamStudy(opts)
			if err != nil {
				t.Fatal(err)
			}
			study, err := NewStudy(Options{App: app, Geometry: cluster.SmallConfig()})
			if err != nil {
				t.Fatal(err)
			}
			exact := study.Metrics()
			got := streamed.Metrics

			// Exact fields: identical up to float summation order.
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"MeanMedianSec", got.MeanMedianSec, exact.MeanMedianSec},
				{"LaggardFraction", got.LaggardFraction, exact.LaggardFraction},
				{"AvgReclaimableProcSec", got.AvgReclaimableProcSec, exact.AvgReclaimableProcSec},
				{"IdleRatioProc", got.IdleRatioProc, exact.IdleRatioProc},
				{"AvgReclaimableAppIterSec", got.AvgReclaimableAppIterSec, exact.AvgReclaimableAppIterSec},
				{"IdleRatioAppIter", got.IdleRatioAppIter, exact.IdleRatioAppIter},
			} {
				if !approxEqual(c.got, c.want, 1e-9) {
					t.Errorf("%s: streaming %v vs exact %v", c.what, c.got, c.want)
				}
			}

			// Sketch-estimated fields: documented tolerance.
			if !approxEqual(got.IQRMeanSec, exact.IQRMeanSec, 0.10) {
				t.Errorf("IQRMeanSec: streaming %v vs exact %v (>10%%)", got.IQRMeanSec, exact.IQRMeanSec)
			}
			if !approxEqual(got.IQRMaxSec, exact.IQRMaxSec, 0.15) {
				t.Errorf("IQRMaxSec: streaming %v vs exact %v (>15%%)", got.IQRMaxSec, exact.IQRMaxSec)
			}

			// Table 1 is exact: the battery runs on identical blocks.
			wantT1 := study.Table1()
			if streamed.Table1 != wantT1 {
				t.Errorf("Table1: streaming %+v vs exact %+v", streamed.Table1, wantT1)
			}

			// Application-level moments are exact.
			samples := study.Dataset().AllSamples()
			sum := 0.0
			for _, x := range samples {
				sum += x
			}
			if !approxEqual(streamed.Moments.Mean(), sum/float64(len(samples)), 1e-9) {
				t.Errorf("moments mean %v vs exact %v", streamed.Moments.Mean(), sum/float64(len(samples)))
			}
			if streamed.Samples() != int64(len(samples)) {
				t.Errorf("streamed %d samples, want %d", streamed.Samples(), len(samples))
			}
		})
	}
}

// TestStudyMetricsStreamingMatchesMetrics: the cursor-based streaming
// analysis over a study's dataset must agree with the study's exact path
// the same way the online path does.
func TestStudyMetricsStreamingMatchesMetrics(t *testing.T) {
	study, err := NewStudy(Options{App: "minife", Geometry: cluster.SmallConfig()})
	if err != nil {
		t.Fatal(err)
	}
	exact := study.Metrics()
	streamed := analysis.ComputeMetricsStreaming(study.App(), study.Dataset().Cursor(), study.opts.Policy.LaggardThresholdSec)
	if !approxEqual(streamed.MeanMedianSec, exact.MeanMedianSec, 1e-9) ||
		!approxEqual(streamed.LaggardFraction, exact.LaggardFraction, 1e-9) ||
		!approxEqual(streamed.AvgReclaimableProcSec, exact.AvgReclaimableProcSec, 1e-9) {
		t.Fatalf("streaming %+v vs exact %+v", streamed, exact)
	}
	if !approxEqual(streamed.IQRMeanSec, exact.IQRMeanSec, 0.10) {
		t.Fatalf("IQRMeanSec: streaming %v vs exact %v", streamed.IQRMeanSec, exact.IQRMeanSec)
	}
	if got, want := analysis.Table1Streaming(study.App(), study.Dataset().Cursor(), study.opts.Policy.Alpha), study.Table1(); got != want {
		t.Fatalf("Table1Streaming %+v vs Table1 %+v", got, want)
	}
}

// TestStreamMetricsDeterministic: like the materialised path, streaming
// results are a pure function of (model, geometry, seed).
func TestStreamMetricsDeterministic(t *testing.T) {
	opts := Options{App: "minimd", Geometry: cluster.Config{Trials: 2, Ranks: 3, Iterations: 30, Threads: 16, Seed: 5}}
	a, err := StreamMetrics(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StreamMetrics(Options{App: "minimd", Geometry: opts.Geometry})
	if err != nil {
		t.Fatal(err)
	}
	// Exact fields must match bit-for-bit across runs (per-(trial,rank,
	// iter) RNG streams make the sums scheduling-independent only up to
	// merge order, so compare with a tight tolerance).
	if !approxEqual(a.MeanMedianSec, b.MeanMedianSec, 1e-12) ||
		a.LaggardFraction != b.LaggardFraction ||
		!approxEqual(a.AvgReclaimableProcSec, b.AvgReclaimableProcSec, 1e-12) {
		t.Fatalf("streaming metrics not deterministic: %+v vs %+v", a, b)
	}
}

func TestStreamStudyRejectsBadOptions(t *testing.T) {
	if _, err := StreamStudy(Options{}); err == nil {
		t.Fatal("expected error for empty options")
	}
	if _, err := StreamMetrics(Options{App: "nosuch"}); err == nil {
		t.Fatal("expected error for unknown app")
	}
}
