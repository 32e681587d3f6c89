package experiments

import (
	"bytes"
	"strings"
	"testing"

	"earlybird/internal/engine"
	"earlybird/internal/stats/normality"
)

func quickSuite() *Suite { return NewSuiteOn(Quick(), engine.New(0)) }

func TestDatasetCachingAndDeterminism(t *testing.T) {
	s := quickSuite()
	a := s.Dataset("minife")
	b := s.Dataset("minife")
	if a != b {
		t.Fatal("dataset not cached")
	}
	s2 := quickSuite()
	x, y := s.Dataset("minimd").AllSamples(), s2.Dataset("minimd").AllSamples()
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("suites with the same config disagree")
		}
	}
}

func TestWarmFillsEngineCache(t *testing.T) {
	s := quickSuite()
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine().Executions(); got != int64(len(AppNames)) {
		t.Errorf("executions after Warm = %d, want %d", got, len(AppNames))
	}
	// Every per-app request and a second Warm are now cache hits.
	for _, app := range AppNames {
		s.Dataset(app)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine().Executions(); got != int64(len(AppNames)) {
		t.Errorf("executions after reuse = %d, want %d", got, len(AppNames))
	}
}

func TestSuitesShareEngineCache(t *testing.T) {
	eng := engine.New(0)
	a := NewSuiteOn(Quick(), eng)
	b := NewSuiteOn(Quick(), eng)
	if a.Dataset("miniqmc") != b.Dataset("miniqmc") {
		t.Error("suites on one engine generated separate datasets")
	}
	if got := eng.Executions(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
}

func TestDatasetUnknownAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	quickSuite().Dataset("lulesh")
}

func TestE1AllReject(t *testing.T) {
	s := quickSuite()
	for app, res := range s.E1AppLevelNormality() {
		for _, r := range res {
			if !r.RejectNormal {
				t.Errorf("%s/%v: application level not rejected", app, r.Test)
			}
		}
	}
}

func TestE3Table1Shape(t *testing.T) {
	s := quickSuite()
	rows := s.E3Table1()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byApp := map[string][3]float64{}
	for _, r := range rows {
		byApp[r.App] = r.PassRates
	}
	// The qualitative Table 1 ordering: FE << MD < QMC for all tests.
	for _, test := range normality.Tests {
		fe, md, qmc := byApp["minife"][test], byApp["minimd"][test], byApp["miniqmc"][test]
		if !(fe < md && md < qmc) {
			t.Errorf("%v: pass rates not ordered FE(%v) < MD(%v) < QMC(%v)", test, fe, md, qmc)
		}
	}
}

func TestE4HistogramPeaks(t *testing.T) {
	s := quickSuite()
	h := s.E4Fig3Histograms()
	// Peaks must sit near the paper's mean medians (26.30/24.74/60.91 ms).
	peaks := map[string][2]float64{
		"minife":  {25e-3, 28e-3},
		"minimd":  {24e-3, 26e-3},
		"miniqmc": {50e-3, 70e-3},
	}
	for app, band := range peaks {
		p := h[app].Peak()
		if p < band[0] || p > band[1] {
			t.Errorf("%s: histogram peak %v outside [%v, %v]", app, p, band[0], band[1])
		}
	}
}

func TestE5E9PercentileSeries(t *testing.T) {
	s := quickSuite()
	fe := s.E5Fig4MiniFEPercentiles()
	if len(fe.Values) != s.Config().Cluster.Iterations {
		t.Fatal("fig4 rows")
	}
	if fe.SkewAsymmetry() <= 0 {
		t.Error("MiniFE should be early-arrival skewed")
	}
	qmc := s.E9Fig8MiniQMCPercentiles()
	qm, _ := qmc.IQRStats(0, len(qmc.Values))
	fm, _ := fe.IQRStats(0, len(fe.Values))
	if qm < 20*fm {
		t.Errorf("QMC IQR %v not ≫ FE IQR %v", qm, fm)
	}
}

func TestE6E8LaggardClasses(t *testing.T) {
	s := quickSuite()
	f5 := s.E6Fig5MiniFELaggards()
	if f5.LaggardFraction < 0.15 || f5.LaggardFraction > 0.30 {
		t.Errorf("MiniFE laggard fraction %v", f5.LaggardFraction)
	}
	if f5.NoLaggard == nil || f5.WithLaggard == nil {
		t.Fatal("missing example histograms")
	}
	if f5.NoLaggard.Width != 50e-6 {
		t.Error("fig5 bin width")
	}

	f7 := s.E8Fig7MiniMDLaggards()
	if f7.LaggardFraction < 0.02 || f7.LaggardFraction > 0.09 {
		t.Errorf("MiniMD phase-2 laggard fraction %v", f7.LaggardFraction)
	}
	if f7.Phase1 == nil || f7.NoLaggard == nil || f7.WithLaggard == nil {
		t.Fatal("missing fig7 histograms")
	}
	if f7.NoLaggard.Width != 10e-6 || f7.Phase1.Width != 50e-6 {
		t.Error("fig7 bin widths")
	}
}

func TestE7TwoPhases(t *testing.T) {
	s := quickSuite()
	f6 := s.E7Fig6MiniMDPercentiles()
	if f6.PhaseBoundary != 19 {
		t.Errorf("phase boundary %d", f6.PhaseBoundary)
	}
	if f6.Phase1IQRMean < 3*f6.Phase2IQRMean {
		t.Errorf("phase1 IQR %v not ≫ phase2 %v", f6.Phase1IQRMean, f6.Phase2IQRMean)
	}
}

func TestE10Fig9Spread(t *testing.T) {
	s := quickSuite()
	h := s.E10Fig9MiniQMCHistogram()
	if h.Total != 48 {
		t.Fatalf("fig9 samples %d", h.Total)
	}
	// The within-iteration spread should populate well over 10 of the
	// 1 ms bins (the paper's Figure 9 shows ~30 ms breadth).
	if n := countNonZero(h.Counts); n < 8 {
		t.Errorf("fig9 populated bins %d, want >= 8", n)
	}
}

func TestE11MetricsOrdering(t *testing.T) {
	s := quickSuite()
	m := s.E11Metrics()
	// Reclaimable time ordering: QMC >> FE > MD (paper: 708/42.8/17.6).
	if !(m["miniqmc"].AvgReclaimableProcSec > 10*m["minife"].AvgReclaimableProcSec) {
		t.Errorf("QMC reclaimable %v not ≫ FE %v",
			m["miniqmc"].AvgReclaimableProcSec, m["minife"].AvgReclaimableProcSec)
	}
	if !(m["minife"].AvgReclaimableProcSec > m["minimd"].AvgReclaimableProcSec) {
		t.Errorf("FE reclaimable %v not > MD %v",
			m["minife"].AvgReclaimableProcSec, m["minimd"].AvgReclaimableProcSec)
	}
}

func TestE12OverlapShape(t *testing.T) {
	s := quickSuite()
	res := s.E12Overlap()
	overlap := func(app, strategy string) float64 {
		for _, r := range res[app] {
			if r.Strategy == strategy {
				return r.MeanOverlapSec
			}
		}
		t.Fatalf("strategy %s missing for %s", strategy, app)
		return 0
	}
	// Fine-grained early-bird helps QMC most, MD least (Section 5).
	qmc, fe, md := overlap("miniqmc", "finegrained"), overlap("minife", "finegrained"), overlap("minimd", "finegrained")
	if !(qmc > fe && fe > md) {
		t.Errorf("fine-grained overlap not ordered QMC(%v) > FE(%v) > MD(%v)", qmc, fe, md)
	}
	// The bulk baseline always reports zero overlap against itself.
	for _, app := range AppNames {
		for _, r := range res[app] {
			if r.Strategy == "bulk" && (r.MeanOverlapSec > 1e-12 || r.MeanOverlapSec < -1e-12) {
				t.Errorf("%s: bulk self-overlap %v", app, r.MeanOverlapSec)
			}
		}
	}
}

func TestWriteReportMentionsEverything(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	s.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12",
		"Table 1", "Figure 3", "Figure 9", "paper 22.4%", "paper 4.8%",
		"minife", "minimd", "miniqmc", "bulk", "finegrained", "binned",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
