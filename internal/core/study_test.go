package core

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/network"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

var quickGeom = cluster.Config{Trials: 2, Ranks: 3, Iterations: 40, Threads: 48, Seed: 11}

func quickStudy(t *testing.T, app string) *Study {
	t.Helper()
	s, err := NewStudy(Options{App: app, Geometry: quickGeom})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStudyMetricsConcurrent: Metrics is computed once per Study and
// shared; concurrent Metrics and Feasibility callers all see the value a
// fresh computation gives.
func TestStudyMetricsConcurrent(t *testing.T) {
	s := quickStudy(t, "minife")
	want := analysis.ComputeMetrics(s.Dataset(), s.opts.Policy.LaggardThresholdSec)
	wantA := quickStudy(t, "minife").Feasibility(1<<20, network.OmniPath(), 1e-3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if got := s.Metrics(); got != want {
					t.Errorf("goroutine %d: metrics %+v, want %+v", g, got, want)
				}
				return
			}
			if got := s.Feasibility(1<<20, network.OmniPath(), 1e-3); !reflect.DeepEqual(got, wantA) {
				t.Errorf("goroutine %d: assessment %+v, want %+v", g, got, wantA)
			}
		}(g)
	}
	wg.Wait()
}

func TestNewStudyRunsAllApps(t *testing.T) {
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		s := quickStudy(t, app)
		if s.App() != app {
			t.Errorf("app = %q", s.App())
		}
		if s.Dataset().NumSamples() != quickGeom.Trials*quickGeom.Ranks*quickGeom.Iterations*quickGeom.Threads {
			t.Errorf("%s: wrong sample count", app)
		}
	}
}

func TestNewStudyOptionValidation(t *testing.T) {
	if _, err := NewStudy(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := NewStudy(Options{App: "nope"}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := NewStudy(Options{App: "minife", Geometry: cluster.Config{Trials: -1, Ranks: 1, Iterations: 1, Threads: 1}}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestNewStudyCustomModel(t *testing.T) {
	m := &workload.NormalModel{AppName: "custom", MedianSec: 5e-3, SigmaSec: 0.1e-3}
	s, err := NewStudy(Options{Model: m, Geometry: quickGeom})
	if err != nil {
		t.Fatal(err)
	}
	if s.App() != "custom" {
		t.Fatalf("app = %q", s.App())
	}
}

func TestFromDataset(t *testing.T) {
	d := trace.NewDataset("x", 1, 1, 2, 4)
	s, err := FromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if s.App() != "x" {
		t.Fatal("app")
	}
	if _, err := FromDataset(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	bad := &trace.Dataset{App: "y", Trials: 1, Ranks: 1, Iterations: 1, Threads: 1} // no samples
	if _, err := FromDataset(bad); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestStudyAnalysisSurface(t *testing.T) {
	s := quickStudy(t, "minife")
	m := s.Metrics()
	if m.MeanMedianSec < 25e-3 || m.MeanMedianSec > 28e-3 {
		t.Errorf("median %v", m.MeanMedianSec)
	}
	t1 := s.Table1()
	if t1.App != "minife" {
		t.Error("table1 app")
	}
	lg := s.Laggards()
	if lg.Total != quickGeom.Trials*quickGeom.Ranks*quickGeom.Iterations {
		t.Errorf("laggard total %d", lg.Total)
	}
	ps := s.Percentiles()
	if len(ps.Values) != quickGeom.Iterations {
		t.Errorf("percentile rows %d", len(ps.Values))
	}
	h := s.Histogram(10e-6)
	if h.Total != s.Dataset().NumSamples() {
		t.Errorf("histogram total %d", h.Total)
	}
}

func TestFeasibilityRecommendations(t *testing.T) {
	// The three applications should reproduce the paper's Section 5
	// classification.
	cases := map[string]Recommendation{
		"minife":  RecommendTimeoutFlush,
		"minimd":  RecommendSophisticated,
		"miniqmc": RecommendFineGrained,
	}
	for app, want := range cases {
		s := quickStudy(t, app)
		a := s.Feasibility(1<<20, network.OmniPath(), 1e-3)
		if a.Recommendation != want {
			t.Errorf("%s: recommendation %q, want %q (laggards %.3f, iqr/median %.4f)",
				app, a.Recommendation, want, a.LaggardFraction, a.IQRToMedian)
		}
		if len(a.Results) != 3 {
			t.Errorf("%s: %d strategy results", app, len(a.Results))
		}
		if a.PotentialOverlapSec <= 0 {
			t.Errorf("%s: potential overlap %v", app, a.PotentialOverlapSec)
		}
		if !strings.Contains(a.String(), app) {
			t.Errorf("%s: render missing app name", app)
		}
	}
}

func TestClassifyBoundaries(t *testing.T) {
	const eps = 1e-9
	cases := []struct {
		name                         string
		iqrToMedian, laggardFraction float64
		want                         Recommendation
	}{
		// The IQR/median cutoff is strict: exactly 0.05 does not count as
		// wide, just above it does — regardless of the laggard fraction.
		{"iqr-at-cutoff", IQRToMedianCutoff, 0, RecommendSophisticated},
		{"iqr-above-cutoff", IQRToMedianCutoff + eps, 0, RecommendFineGrained},
		{"iqr-dominates-laggards", IQRToMedianCutoff + eps, 1, RecommendFineGrained},
		// The laggard cutoff is also strict, and only consulted when the
		// distribution is not wide.
		{"laggards-at-cutoff", 0, LaggardFractionCutoff, RecommendSophisticated},
		{"laggards-above-cutoff", 0, LaggardFractionCutoff + eps, RecommendTimeoutFlush},
		{"laggards-below-iqr-at", IQRToMedianCutoff, LaggardFractionCutoff + eps, RecommendTimeoutFlush},
		{"both-zero", 0, 0, RecommendSophisticated},
		{"both-high", 1, 1, RecommendFineGrained},
	}
	for _, c := range cases {
		if got := Classify(c.iqrToMedian, c.laggardFraction); got != c.want {
			t.Errorf("%s: Classify(%v, %v) = %q, want %q",
				c.name, c.iqrToMedian, c.laggardFraction, got, c.want)
		}
	}
}

func TestFeasibilitySyntheticBoundaries(t *testing.T) {
	// Synthetic models pin each side of the classification: a wide normal
	// distribution (IQR/median ≈ 1.349*sigma/median ≈ 0.13) must classify
	// fine-grained; a tight distribution with a guaranteed 8 ms laggard
	// every iteration must classify timeout-flush; a tight distribution
	// with no laggards must fall through to sophisticated.
	run := func(m workload.Model) Assessment {
		s, err := NewStudy(Options{Model: m, Geometry: quickGeom})
		if err != nil {
			t.Fatal(err)
		}
		return s.Feasibility(1<<20, network.OmniPath(), 1e-3)
	}

	wide := run(&workload.NormalModel{AppName: "wide", MedianSec: 10e-3, SigmaSec: 1e-3})
	if wide.Recommendation != RecommendFineGrained {
		t.Errorf("wide: %q (iqr/median %.4f)", wide.Recommendation, wide.IQRToMedian)
	}
	if wide.IQRToMedian <= IQRToMedianCutoff {
		t.Errorf("wide: iqr/median %.4f not above cutoff", wide.IQRToMedian)
	}

	laggy := run(&workload.SingleLaggardModel{AppName: "laggy", MedianSec: 10e-3, JitterSec: 0.01e-3, LagSec: 8e-3})
	if laggy.Recommendation != RecommendTimeoutFlush {
		t.Errorf("laggy: %q (laggards %.3f, iqr/median %.4f)",
			laggy.Recommendation, laggy.LaggardFraction, laggy.IQRToMedian)
	}
	if laggy.LaggardFraction <= LaggardFractionCutoff {
		t.Errorf("laggy: laggard fraction %.3f not above cutoff", laggy.LaggardFraction)
	}

	tight := run(&workload.NormalModel{AppName: "tight", MedianSec: 10e-3, SigmaSec: 0.01e-3})
	if tight.Recommendation != RecommendSophisticated {
		t.Errorf("tight: %q (laggards %.3f, iqr/median %.4f)",
			tight.Recommendation, tight.LaggardFraction, tight.IQRToMedian)
	}
}

func TestFromDatasetWith(t *testing.T) {
	d, err := cluster.RunColumnarDLB(workload.DefaultMiniFE(), quickGeom, dlb.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := FromDatasetWith(d, Options{Policy: PolicySpec{Alpha: 0.01, LaggardThresholdSec: 5e-3}})
	if err != nil {
		t.Fatal(err)
	}
	defaults, err := FromDatasetWith(d, Options{App: "ignored", Model: workload.DefaultMiniMD()})
	if err != nil {
		t.Fatal(err)
	}
	if defaults.App() != "minife" {
		t.Errorf("App/Model overrode the dataset identity: %q", defaults.App())
	}
	// A 5 ms laggard rule must find no more laggards than the default 1 ms.
	if loose.Laggards().WithLaggard > defaults.Laggards().WithLaggard {
		t.Error("looser threshold found more laggards")
	}
	if loose.Table1() == defaults.Table1() {
		t.Error("alpha=0.01 produced the same Table1 row as the default")
	}
	if _, err := FromDatasetWith(nil, Options{}); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestFeasibilityOverlapOrdering(t *testing.T) {
	// MiniQMC's wide arrivals must yield much more fine-grained overlap
	// than MiniMD's tight ones (the paper's headline contrast).
	qmc := quickStudy(t, "miniqmc").Feasibility(1<<20, network.OmniPath(), 1e-3)
	md := quickStudy(t, "minimd").Feasibility(1<<20, network.OmniPath(), 1e-3)
	var qmcOverlap, mdOverlap float64
	for _, r := range qmc.Results {
		if r.Strategy == "finegrained" {
			qmcOverlap = r.MeanOverlapSec
		}
	}
	for _, r := range md.Results {
		if r.Strategy == "finegrained" {
			mdOverlap = r.MeanOverlapSec
		}
	}
	if qmcOverlap < 2*mdOverlap {
		t.Errorf("qmc overlap %v not ≫ md overlap %v", qmcOverlap, mdOverlap)
	}
}

func TestWriteSummary(t *testing.T) {
	s := quickStudy(t, "minimd")
	var buf bytes.Buffer
	s.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"minimd", "laggards:", "idle ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
