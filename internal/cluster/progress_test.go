package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"earlybird/internal/dlb"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// countingSink is a minimal ProgressSink: atomics only, exactly like
// telemetry.Tracker's feed side, so attaching it from concurrent fill
// workers is race-clean by construction.
type countingSink struct {
	blocks  atomic.Int64
	samples atomic.Int64
	busyNs  atomic.Int64
	lends   atomic.Int64
}

func (s *countingSink) ObserveFill(n int, busy time.Duration) {
	s.blocks.Add(1)
	s.samples.Add(int64(n))
	s.busyNs.Add(int64(busy))
}

func (s *countingSink) ObserveLend(n int) { s.lends.Add(int64(n)) }

// fillObserved fills into a sealed store with a progress sink attached,
// as the campaign engine does.
func fillObserved(model workload.Model, cfg Config, policy dlb.Spec, workers int, progress ProgressSink) (*trace.Dataset, error) {
	sink := trace.NewSink(model.Name(), cfg.Trials, cfg.Ranks, cfg.Iterations, cfg.Threads)
	if _, err := Fill(Job{Model: model, Config: cfg, Policy: policy, Workers: workers, Sink: sink, Progress: progress}); err != nil {
		return nil, err
	}
	return sink.Seal()
}

// TestProgressSinkDoesNotPerturbFill pins the telemetry no-perturbation
// contract: a fill with a progress sink attached produces bit-identical
// datasets to a detached fill, for the static and both rebalancing
// policies, at the quick geometry always and at the paper geometry
// outside -short. The static paper/quick fingerprints must additionally
// equal the pre-refactor goldens, so telemetry cannot even perturb the
// bits "consistently". Run under -race (`make race`) the sink's shared
// atomics become detector targets for every fill worker.
func TestProgressSinkDoesNotPerturbFill(t *testing.T) {
	geoms := map[string]Config{"quick": SmallConfig()}
	if !testing.Short() {
		geoms["paper"] = DefaultConfig()
	}
	policies := []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}, {Policy: dlb.PolicyDROM}}

	for app, golden := range preRefactorFingerprints {
		model, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range geoms {
			for _, policy := range policies {
				detached, err := RunColumnarDLB(model, cfg, policy, 4)
				if err != nil {
					t.Fatal(err)
				}
				sink := &countingSink{}
				attached, err := fillObserved(model, cfg, policy, 4, sink)
				if err != nil {
					t.Fatal(err)
				}
				if attached.Fingerprint() != detached.Fingerprint() {
					t.Errorf("%s %s policy %q: attached fingerprint %#016x != detached %#016x — telemetry perturbed the fill",
						app, name, policy.String(), attached.Fingerprint(), detached.Fingerprint())
				}
				if policy.IsStatic() {
					if got := attached.Fingerprint(); got != golden[name] {
						t.Errorf("%s %s: observed static fingerprint %#016x, want pre-refactor golden %#016x",
							app, name, got, golden[name])
					}
				}

				wantBlocks := int64(cfg.Trials) * int64(cfg.Ranks) * int64(cfg.Iterations)
				if got := sink.blocks.Load(); got != wantBlocks {
					t.Errorf("%s %s policy %q: sink saw %d blocks, want %d",
						app, name, policy.String(), got, wantBlocks)
				}
				if got := sink.samples.Load(); got != int64(cfg.Samples()) {
					t.Errorf("%s %s policy %q: sink saw %d samples, want %d",
						app, name, policy.String(), got, cfg.Samples())
				}
				if sink.busyNs.Load() <= 0 {
					t.Errorf("%s %s policy %q: sink accumulated no busy time", app, name, policy.String())
				}
				if policy.IsStatic() && sink.lends.Load() != 0 {
					t.Errorf("%s %s: static fill reported %d lend events", app, name, sink.lends.Load())
				}
			}
		}
	}
}

// TestProgressSinkSeesLendEvents: the balanced fill must report lent
// allocations to the sink — LeWI at the quick geometry demonstrably
// rebalances (TestDLBPolicyChangesBits), so a sink attached to it must
// observe at least one lend event.
func TestProgressSinkSeesLendEvents(t *testing.T) {
	sink := &countingSink{}
	if _, err := fillObserved(workload.DefaultMiniFE(), SmallConfig(), dlb.Spec{Policy: dlb.PolicyLeWI}, 2, sink); err != nil {
		t.Fatal(err)
	}
	if sink.lends.Load() == 0 {
		t.Fatal("LeWI fill reported no lend events to the progress sink")
	}
}
