package workload_test

import (
	"math"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/rng"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// mustFill generates cfg's dataset for m under the static policy.
func mustFill(t *testing.T, m workload.Model, cfg cluster.Config) *trace.Dataset {
	t.Helper()
	d, err := cluster.RunColumnarDLB(m, cfg, dlb.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// calCfg is large enough for stable rate estimates (1600 process
// iterations) while keeping the suite fast.
var calCfg = cluster.Config{Trials: 4, Ranks: 4, Iterations: 100, Threads: 48, Seed: 7}

func inBand(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if math.IsNaN(got) || got < lo || got > hi {
		t.Errorf("%s = %v, want in [%v, %v]", name, got, lo, hi)
	}
}

func TestModelsDeterministic(t *testing.T) {
	for _, m := range []workload.Model{
		workload.DefaultMiniFE(), workload.DefaultMiniMD(), workload.DefaultMiniQMC(),
	} {
		root := rng.New(3)
		a := make([]float64, 48)
		b := make([]float64, 48)
		m.FillProcessIteration(root, 1, 2, 3, a)
		m.FillProcessIteration(root, 1, 2, 3, b)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: refilling the same coordinates differed at %d", m.Name(), i)
				break
			}
		}
		m.FillProcessIteration(root, 1, 2, 4, b)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different iterations produced identical times", m.Name())
		}
	}
}

func TestModelNames(t *testing.T) {
	if workload.DefaultMiniFE().Name() != "minife" ||
		workload.DefaultMiniMD().Name() != "minimd" ||
		workload.DefaultMiniQMC().Name() != "miniqmc" {
		t.Fatal("unexpected model names")
	}
}

func TestMiniFECalibration(t *testing.T) {
	d := mustFill(t, workload.DefaultMiniFE(), calCfg)
	m := analysis.ComputeMetrics(d, analysis.DefaultLaggardThresholdSec)

	// Paper Section 4.2.1 targets.
	inBand(t, "mean median (s)", m.MeanMedianSec, 25.8e-3, 26.8e-3)         // 26.30 ms
	inBand(t, "laggard fraction", m.LaggardFraction, 0.18, 0.27)            // 22.4%
	inBand(t, "avg reclaimable (s)", m.AvgReclaimableProcSec, 34e-3, 52e-3) // 42.82 ms
	inBand(t, "IQR mean (s)", m.IQRMeanSec, 0.12e-3, 0.40e-3)               // 0.18 ms
	inBand(t, "IQR max (s)", m.IQRMaxSec, 0.8e-3, 8e-3)                     // 4.24 ms

	// Early arrival more common than late: positive percentile asymmetry.
	ps := analysis.IterationPercentiles(d, nil)
	if skew := ps.SkewAsymmetry(); skew <= 0 {
		t.Errorf("skew asymmetry = %v, want positive (early arrivals dominate)", skew)
	}

	// Table 1: MiniFE process iterations are almost never normal.
	t1 := analysis.Table1Row(d, normality.DefaultAlpha)
	inBand(t, "D'Agostino pass rate", t1.PassRates[normality.DAgostino], 0, 0.10)
	inBand(t, "Shapiro-Wilk pass rate", t1.PassRates[normality.ShapiroWilk], 0, 0.03)
	inBand(t, "Anderson-Darling pass rate", t1.PassRates[normality.AndersonDarling], 0, 0.04)
}

func TestMiniMDCalibration(t *testing.T) {
	md := workload.DefaultMiniMD()
	d := mustFill(t, md, calCfg)

	// Phase structure (Section 4.2.2): the first nineteen iterations are
	// much wider than the remainder.
	p1 := analysis.ComputeMetricsInRange(d, 1e-3, 0, md.PhaseOneIters)
	p2 := analysis.ComputeMetricsInRange(d, 1e-3, md.PhaseOneIters, calCfg.Iterations)
	inBand(t, "phase1 IQR mean (s)", p1.IQRMeanSec, 0.7e-3, 1.2e-3)   // 0.93 ms
	inBand(t, "phase1 IQR max (s)", p1.IQRMaxSec, 0.8e-3, 1.9e-3)     // 1.45 ms
	inBand(t, "phase2 IQR mean (s)", p2.IQRMeanSec, 0.10e-3, 0.35e-3) // 0.15 ms
	if p1.IQRMeanSec < 3*p2.IQRMeanSec {
		t.Errorf("phase1 IQR %v not much wider than phase2 %v", p1.IQRMeanSec, p2.IQRMeanSec)
	}
	inBand(t, "phase1 median (s)", p1.MeanMedianSec, 25e-3, 26e-3)
	inBand(t, "phase2 median (s)", p2.MeanMedianSec, 24.4e-3, 25.2e-3)     // 24.74 ms
	inBand(t, "phase2 laggard fraction", p2.LaggardFraction, 0.025, 0.085) // 4.8%
	// Phase 1 has no engineered laggards.
	if p1.LaggardFraction > 0.5 {
		t.Errorf("phase1 laggard fraction %v implausibly high", p1.LaggardFraction)
	}

	m := analysis.ComputeMetrics(d, analysis.DefaultLaggardThresholdSec)
	inBand(t, "avg reclaimable (s)", m.AvgReclaimableProcSec, 13e-3, 26e-3) // 17.61 ms

	t1 := analysis.Table1Row(d, normality.DefaultAlpha)
	inBand(t, "D'Agostino pass rate", t1.PassRates[normality.DAgostino], 0.65, 0.87)             // 77%
	inBand(t, "Shapiro-Wilk pass rate", t1.PassRates[normality.ShapiroWilk], 0.65, 0.88)         // 74%
	inBand(t, "Anderson-Darling pass rate", t1.PassRates[normality.AndersonDarling], 0.70, 0.92) // 76%
}

func TestMiniQMCCalibration(t *testing.T) {
	d := mustFill(t, workload.DefaultMiniQMC(), calCfg)
	m := analysis.ComputeMetrics(d, analysis.DefaultLaggardThresholdSec)

	inBand(t, "mean median (s)", m.MeanMedianSec, 59e-3, 63e-3)               // 60.91 ms
	inBand(t, "avg reclaimable (s)", m.AvgReclaimableProcSec, 600e-3, 800e-3) // 708.03 ms
	inBand(t, "IQR mean (s)", m.IQRMeanSec, 7.5e-3, 11e-3)                    // 9.05 ms
	inBand(t, "IQR max (s)", m.IQRMaxSec, 9e-3, 18e-3)                        // 15.61 ms

	// The breadth of arrivals exceeds 40 ms (Figure 8).
	ps := analysis.IterationPercentiles(d, []float64{1, 25, 50, 75, 99})
	p1 := ps.Column(1)
	p99 := ps.Column(99)
	wide := 0
	for i := range p1 {
		if p99[i]-p1[i] > 30e-3 {
			wide++
		}
	}
	if wide < len(p1)/2 {
		t.Errorf("only %d/%d iterations have >30ms arrival breadth", wide, len(p1))
	}

	// Table 1: most process iterations are normal.
	t1 := analysis.Table1Row(d, normality.DefaultAlpha)
	inBand(t, "D'Agostino pass rate", t1.PassRates[normality.DAgostino], 0.87, 0.99)
	inBand(t, "Shapiro-Wilk pass rate", t1.PassRates[normality.ShapiroWilk], 0.88, 0.99)
	inBand(t, "Anderson-Darling pass rate", t1.PassRates[normality.AndersonDarling], 0.90, 1.0)
}

// Application-iteration aggregation must reject normality almost always
// for all three applications (Section 4.1), with MiniQMC allowed a few
// D'Agostino passes.
func TestApplicationIterationRejection(t *testing.T) {
	for _, m := range []workload.Model{
		workload.DefaultMiniFE(), workload.DefaultMiniMD(), workload.DefaultMiniQMC(),
	} {
		d := mustFill(t, m, cluster.Config{Trials: 4, Ranks: 8, Iterations: 50, Threads: 48, Seed: 5})
		s := analysis.ApplicationIterationNormality(d, normality.DefaultAlpha)
		for _, test := range normality.Tests {
			// At this reduced geometry (1536 samples per iteration vs the
			// paper's 3840) the tests have less power; the full-geometry
			// check lives in internal/experiments.
			if rate := s.PassRate(test); rate > 0.20 {
				t.Errorf("%s/%v: app-iteration pass rate %.2f, want <= 0.20", m.Name(), test, rate)
			}
		}
	}
}

// The full application aggregation must reject for every app and test.
func TestApplicationLevelRejection(t *testing.T) {
	for _, m := range []workload.Model{
		workload.DefaultMiniFE(), workload.DefaultMiniMD(), workload.DefaultMiniQMC(),
	} {
		d := mustFill(t, m, cluster.SmallConfig())
		res := analysis.ApplicationLevelNormality(d, normality.DefaultAlpha)
		for _, r := range res {
			if !r.RejectNormal {
				t.Errorf("%s/%v: application-level aggregation not rejected", m.Name(), r.Test)
			}
		}
	}
}

func TestGenericNormalModel(t *testing.T) {
	m := &workload.NormalModel{AppName: "norm", MedianSec: 10e-3, SigmaSec: 1e-3}
	if m.Name() != "norm" {
		t.Fatal("name")
	}
	d := mustFill(t, m, cluster.Config{Trials: 2, Ranks: 2, Iterations: 50, Threads: 48, Seed: 2})
	t1 := analysis.Table1Row(d, normality.DefaultAlpha)
	for _, test := range normality.Tests {
		if t1.PassRates[test] < 0.85 {
			t.Errorf("%v: normal model pass rate %.2f too low", test, t1.PassRates[test])
		}
	}
}

func TestGenericUniformModelBounds(t *testing.T) {
	m := &workload.UniformModel{AppName: "uni", MedianSec: 5e-3, HalfWidthSec: 1e-3}
	root := rng.New(1)
	out := make([]float64, 256)
	m.FillProcessIteration(root, 0, 0, 0, out)
	for _, x := range out {
		if x < 4e-3 || x >= 6e-3 {
			t.Fatalf("uniform draw %v outside [4ms, 6ms)", x)
		}
	}
}

func TestSingleLaggardModel(t *testing.T) {
	m := &workload.SingleLaggardModel{AppName: "lag", MedianSec: 20e-3, JitterSec: 0.01e-3, LagSec: 5e-3}
	d := mustFill(t, m, cluster.Config{Trials: 1, Ranks: 2, Iterations: 40, Threads: 48, Seed: 3})
	st := analysis.Laggards(d, analysis.DefaultLaggardThresholdSec)
	if st.Fraction != 1 {
		t.Fatalf("single-laggard model laggard fraction = %v, want 1", st.Fraction)
	}
	if st.MeanMagnitudeSec < 4.5e-3 || st.MeanMagnitudeSec > 5.5e-3 {
		t.Fatalf("laggard magnitude = %v, want ~5ms", st.MeanMagnitudeSec)
	}
}

func TestFuncModelAdapter(t *testing.T) {
	m := &workload.Func{
		AppName: "fn",
		Fill: func(s *rng.Source, trial, rank, iter int, out []float64) {
			for i := range out {
				out[i] = float64(trial+rank+iter) + 1
			}
		},
	}
	root := rng.New(1)
	out := make([]float64, 4)
	m.FillProcessIteration(root, 1, 2, 3, out)
	for _, x := range out {
		if x != 7 {
			t.Fatalf("func model output %v, want 7", x)
		}
	}
	if m.Name() != "fn" {
		t.Fatal("name")
	}
}
