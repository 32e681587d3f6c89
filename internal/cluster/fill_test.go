package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"earlybird/internal/dlb"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// taskRecorder is one worker's observer: it keeps a copy of every block
// it is handed and the tasks those blocks belong to.
type taskRecorder struct {
	cfg       Config
	taskRanks int
	blocks    map[[3]int][]float64
	tasks     map[int]int // task -> blocks seen
}

func (r *taskRecorder) ObserveBlock(trial, rank, iter int, times []float64) {
	r.blocks[[3]int{trial, rank, iter}] = append([]float64(nil), times...)
	r.tasks[(trial*r.cfg.Ranks+rank)/r.taskRanks]++
}

// TestFillContract pins what an observers-only fill (nil sink, the path
// /v1/sweep's streamed cells take) delivers with a progress sink
// attached, under every policy:
//   - the observed blocks, reassembled into a sealed store, carry the
//     same fingerprint as RunColumnarDLB's;
//   - the progress sink counts every block and sample, and LeWI reports
//     lends;
//   - worker w's observer sees exactly the tasks of
//     stripeRange(tasks, workers, w) — (trial, rank) stripes under
//     static, whole trials otherwise — with every block of each. The
//     t-digest IQR of a streamed cell depends on this partition.
func TestFillContract(t *testing.T) {
	geoms := []struct {
		name    string
		cfg     Config
		workers int
	}{
		{"small", Config{Trials: 3, Ranks: 4, Iterations: 30, Threads: 48, Seed: 5}, 2},
		{"one-trial shard", Config{Trials: 1, Ranks: 4, Iterations: 30, Threads: 48, Seed: 6}, 2},
		{"workers > tasks", Config{Trials: 2, Ranks: 4, Iterations: 20, Threads: 48, Seed: 7}, 9},
	}
	policies := []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}, {Policy: dlb.PolicyDROM}}
	model := workload.DefaultMiniFE()

	for _, g := range geoms {
		for _, policy := range policies {
			t.Run(fmt.Sprintf("%s/%s", g.name, policy.Name()), func(t *testing.T) {
				cfg := g.cfg
				taskRanks := cfg.Ranks
				if policy.IsStatic() {
					taskRanks = 1
				}
				tasks := cfg.Trials * cfg.Ranks / taskRanks

				progress := &countingSink{}
				var recs []*taskRecorder
				obs, err := Fill(Job{Model: model, Config: cfg, Policy: policy, Workers: g.workers,
					Progress: progress, NewObserver: func() BlockObserver {
						r := &taskRecorder{cfg: cfg, taskRanks: taskRanks,
							blocks: map[[3]int][]float64{}, tasks: map[int]int{}}
						recs = append(recs, r)
						return r
					}})
				if err != nil {
					t.Fatal(err)
				}

				// Partition: one observer per worker, in worker order.
				workers := min(g.workers, tasks)
				if len(obs) != workers || len(recs) != workers {
					t.Fatalf("%d observers (%d created), want %d", len(obs), len(recs), workers)
				}
				for w, r := range recs {
					if obs[w] != BlockObserver(r) {
						t.Fatalf("observer %d is not worker %d's", w, w)
					}
					lo, hi := stripeRange(tasks, workers, w)
					if len(r.tasks) != hi-lo {
						t.Errorf("worker %d saw tasks %v, want [%d, %d)", w, r.tasks, lo, hi)
					}
					for task := lo; task < hi; task++ {
						if n := r.tasks[task]; n != taskRanks*cfg.Iterations {
							t.Errorf("worker %d saw %d blocks of task %d, want %d", w, n, task, taskRanks*cfg.Iterations)
						}
					}
				}

				// Bits: reassemble the observed blocks into a sealed store.
				sink := trace.NewSink(model.Name(), cfg.Trials, cfg.Ranks, cfg.Iterations, cfg.Threads)
				for trial := 0; trial < cfg.Trials; trial++ {
					for rank := 0; rank < cfg.Ranks; rank++ {
						sw := sink.Stripe(trial, rank)
						for i := 0; i < cfg.Iterations; i++ {
							for _, r := range recs {
								if b, ok := r.blocks[[3]int{trial, rank, i}]; ok {
									sw.Append(b)
								}
							}
						}
					}
				}
				observed, err := sink.Seal()
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunColumnarDLB(model, cfg, policy, g.workers)
				if err != nil {
					t.Fatal(err)
				}
				if observed.Fingerprint() != want.Fingerprint() {
					t.Errorf("observed fingerprint %#016x, RunColumnarDLB %#016x", observed.Fingerprint(), want.Fingerprint())
				}

				// Progress.
				if got, want := progress.blocks.Load(), int64(cfg.Trials*cfg.Ranks*cfg.Iterations); got != want {
					t.Errorf("progress saw %d blocks, want %d", got, want)
				}
				if got := progress.samples.Load(); got != int64(cfg.Samples()) {
					t.Errorf("progress saw %d samples, want %d", got, cfg.Samples())
				}
				switch lends := progress.lends.Load(); {
				case policy.IsStatic() && lends != 0:
					t.Errorf("static fill reported %d lends", lends)
				case policy.Policy == dlb.PolicyLeWI && lends == 0:
					t.Error("LeWI fill reported no lends")
				}
			})
		}
	}
}

// TestFillDefaultWorkersFollowGOMAXPROCS: Workers <= 0 means one fill
// goroutine per usable CPU (GOMAXPROCS), not per installed CPU, so a
// process limited to one CPU gets one worker and one observer.
func TestFillDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	obs, err := Fill(Job{Model: workload.DefaultMiniMD(), Config: SmallConfig(),
		NewObserver: func() BlockObserver { return &countingObserver{} }})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("GOMAXPROCS=1 fill created %d observers, want 1", len(obs))
	}
}
