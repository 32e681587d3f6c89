package cluster

import (
	"math"
	"testing"

	"earlybird/internal/dlb"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// mustDataset fills cfg under the static policy into a sealed dataset.
func mustDataset(t *testing.T, model workload.Model, cfg Config, workers int) *trace.Dataset {
	t.Helper()
	d, err := RunColumnarDLB(model, cfg, dlb.Spec{}, workers)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunGeometry(t *testing.T) {
	cfg := Config{Trials: 2, Ranks: 3, Iterations: 5, Threads: 7, Seed: 9}
	d := mustDataset(t, workload.DefaultMiniFE(), cfg, 0)
	if d.App != "minife" {
		t.Errorf("app = %q", d.App)
	}
	if d.NumSamples() != 2*3*5*7 {
		t.Errorf("samples = %d", d.NumSamples())
	}
	for _, x := range d.AllSamples() {
		if x <= 0 {
			t.Fatalf("non-positive compute time %v", x)
		}
	}
}

func TestRunDeterministicAcrossSchedules(t *testing.T) {
	cfg := Config{Trials: 3, Ranks: 2, Iterations: 10, Threads: 16, Seed: 42}
	a := mustDataset(t, workload.DefaultMiniMD(), cfg, 0)
	b := mustDataset(t, workload.DefaultMiniMD(), cfg, 0)
	as, bs := a.AllSamples(), b.AllSamples()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, as[i], bs[i])
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	cfg := Config{Trials: 1, Ranks: 1, Iterations: 2, Threads: 8, Seed: 1}
	cfg2 := cfg
	cfg2.Seed = 2
	a := mustDataset(t, workload.DefaultMiniQMC(), cfg, 0)
	b := mustDataset(t, workload.DefaultMiniQMC(), cfg2, 0)
	if a.AllSamples()[0] == b.AllSamples()[0] {
		t.Fatal("different seeds produced identical data")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Fill(Job{Model: workload.DefaultMiniFE()}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Trials != 10 || cfg.Ranks != 8 || cfg.Iterations != 200 || cfg.Threads != 48 {
		t.Fatalf("default config %+v does not match Section 3.2", cfg)
	}
	if cfg.Trials*cfg.Ranks*cfg.Iterations*cfg.Threads != 768000 {
		t.Fatal("default config should yield 768000 samples")
	}
	if cfg.Trials*cfg.Ranks*cfg.Iterations != 16000 {
		t.Fatal("default config should yield 16000 process iterations")
	}
}

// countingObserver accumulates a per-worker sample count and sum; merged
// across workers it must match the materialised dataset exactly.
type countingObserver struct {
	blocks int
	n      int
	sum    float64
}

func (o *countingObserver) ObserveBlock(trial, rank, iter int, xs []float64) {
	o.blocks++
	o.n += len(xs)
	for _, x := range xs {
		o.sum += x
	}
}

// TestRunStreamObserversSeeEveryBlock runs the streaming fill with no sink
// (aggregate-only mode) across several workers and checks the merged
// observer totals against the materialised run — also the -race exercise
// for the concurrent fill path.
func TestRunStreamObserversSeeEveryBlock(t *testing.T) {
	model := &workload.MiniFE{}
	cfg := Config{Trials: 2, Ranks: 3, Iterations: 20, Threads: 16, Seed: 7}

	obs, err := Fill(Job{Model: model, Config: cfg, Workers: 4,
		NewObserver: func() BlockObserver { return &countingObserver{} }})
	if err != nil {
		t.Fatal(err)
	}
	var total countingObserver
	for _, o := range obs {
		c := o.(*countingObserver)
		total.blocks += c.blocks
		total.n += c.n
		total.sum += c.sum
	}
	if want := cfg.Trials * cfg.Ranks * cfg.Iterations; total.blocks != want {
		t.Fatalf("observers saw %d blocks, want %d", total.blocks, want)
	}
	if want := cfg.Trials * cfg.Ranks * cfg.Iterations * cfg.Threads; total.n != want {
		t.Fatalf("observers saw %d samples, want %d", total.n, want)
	}

	d := mustDataset(t, model, cfg, 2)
	exact := 0.0
	for _, x := range d.AllSamples() {
		exact += x
	}
	if diff := math.Abs(total.sum - exact); diff > 1e-9*math.Abs(exact) {
		t.Fatalf("streamed sum %v vs materialised sum %v", total.sum, exact)
	}
}

// TestRunColumnarMatchesRunWorkers: sealed datasets must be the same
// bytes and the same fingerprint regardless of worker count.
func TestRunColumnarMatchesRunWorkers(t *testing.T) {
	model := &workload.MiniMD{}
	cfg := Config{Trials: 2, Ranks: 2, Iterations: 15, Threads: 8, Seed: 3}
	col, err := RunColumnarDLB(model, cfg, dlb.Spec{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDataset(t, model, cfg, 1)
	if col.Fingerprint() != d.Fingerprint() {
		t.Fatal("fingerprints differ across worker counts")
	}
	if col.NumSamples() != d.NumSamples() {
		t.Fatal("sample counts differ")
	}
}

// TestRunStreamWithSinkFeedsObserversAndSink: sink mode must both
// materialise the samples and feed them to observers.
func TestRunStreamWithSinkFeedsObserversAndSink(t *testing.T) {
	model := &workload.MiniQMC{}
	cfg := Config{Trials: 1, Ranks: 2, Iterations: 10, Threads: 8, Seed: 1}
	sink := trace.NewSink(model.Name(), cfg.Trials, cfg.Ranks, cfg.Iterations, cfg.Threads)
	obs, err := Fill(Job{Model: model, Config: cfg, Workers: 2, Sink: sink,
		NewObserver: func() BlockObserver { return &countingObserver{} }})
	if err != nil {
		t.Fatal(err)
	}
	col, err := sink.Seal()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, o := range obs {
		n += o.(*countingObserver).n
	}
	if n != col.NumSamples() {
		t.Fatalf("observers saw %d samples, sink holds %d", n, col.NumSamples())
	}
}

// TestRunStreamRejectsMismatchedSink guards the sink/config geometry check.
func TestRunStreamRejectsMismatchedSink(t *testing.T) {
	model := &workload.MiniFE{}
	cfg := Config{Trials: 2, Ranks: 2, Iterations: 4, Threads: 4, Seed: 1}
	sink := trace.NewSink(model.Name(), 1, 2, 4, 4)
	if _, err := Fill(Job{Model: model, Config: cfg, Workers: 1, Sink: sink}); err == nil {
		t.Fatal("expected geometry mismatch error")
	}
}
