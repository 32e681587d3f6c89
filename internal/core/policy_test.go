package core

import (
	"reflect"
	"sync"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
)

// TestPolicyDLBThreadsThroughStudy: a DLB policy set via PolicySpec
// changes the generated samples, and an invalid one errors.
func TestPolicyDLBThreadsThroughStudy(t *testing.T) {
	quick := cluster.SmallConfig()
	static, err := NewStudy(Options{App: "minife", Geometry: quick})
	if err != nil {
		t.Fatal(err)
	}
	lewi, err := NewStudy(Options{App: "minife", Geometry: quick,
		Policy: PolicySpec{DLB: dlb.Spec{Policy: dlb.PolicyLeWI}}})
	if err != nil {
		t.Fatal(err)
	}
	sm, lm := static.Metrics(), lewi.Metrics()
	if reflect.DeepEqual(sm, lm) {
		t.Fatal("lewi study produced identical metrics to static")
	}
	if _, err := NewStudy(Options{App: "minife", Geometry: quick,
		Policy: PolicySpec{DLB: dlb.Spec{Policy: "warp"}}}); err == nil {
		t.Fatal("invalid DLB policy accepted")
	}
	res, err := StreamStudy(Options{App: "minife", Geometry: quick,
		Policy: PolicySpec{DLB: dlb.Spec{Policy: dlb.PolicyLeWI}}})
	if err != nil {
		t.Fatal(err)
	}
	// Streaming accumulators merge in scheduling order, so allow float
	// noise — but the streamed result must track the lewi study, not the
	// static one.
	relDiff := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d / b
	}
	if relDiff(res.Metrics.MeanMedianSec, lm.MeanMedianSec) > 1e-9 {
		t.Fatalf("stream study ignored the DLB policy: %v vs %v",
			res.Metrics.MeanMedianSec, lm.MeanMedianSec)
	}
	if relDiff(res.Metrics.MeanMedianSec, sm.MeanMedianSec) < 1e-12 {
		t.Fatal("streamed lewi result matches static")
	}
}

// TestStrategiesClonedPerStudy: one Options value carrying a stateful
// strategy must be safe to reuse — every study gets its own clone, and
// concurrent feasibility evaluations neither race nor perturb each
// other's results.
func TestStrategiesClonedPerStudy(t *testing.T) {
	shared := &partcomm.EWMABinned{Alpha: 0.3}
	opts := Options{App: "minimd", Geometry: cluster.SmallConfig(),
		Policy: PolicySpec{Strategies: []partcomm.Strategy{partcomm.Bulk{}, shared}}}

	mk := func() *Study {
		s, err := NewStudy(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	for _, s := range []*Study{a, b} {
		got := s.opts.Policy.Strategies[1]
		if got == partcomm.Strategy(shared) {
			t.Fatal("study shares the caller's stateful strategy instance")
		}
		if got.(*partcomm.EWMABinned).Alpha != 0.3 {
			t.Fatal("clone lost its parameters")
		}
	}
	if a.opts.Policy.Strategies[1] == b.opts.Policy.Strategies[1] {
		t.Fatal("two studies share one stateful strategy instance")
	}

	// Concurrent evaluations from one Options must agree with a serial
	// baseline (run with -race this also proves no data race).
	want := a.Feasibility(1<<20, network.OmniPath(), 1e-3)
	var wg sync.WaitGroup
	results := make([]Assessment, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = mk().Feasibility(1<<20, network.OmniPath(), 1e-3)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("concurrent evaluation %d diverged", i)
		}
	}
}
