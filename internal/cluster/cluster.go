// Package cluster fills a full study job — trials x ranks x iterations x
// threads — over a workload model. Fill is the one fill loop: it writes
// the per-iteration sample blocks into a trace.Sink (sealing the dataset
// the analysis pipeline consumes), hands them straight to subscribed
// accumulators so aggregate-only studies never materialise the dataset
// at all, or both.
//
// The default geometry mirrors the paper's experimental configuration on
// Manzano (Section 3.2): ten trials, eight processes per job, 48 threads
// per process (two 24-core Cascade Lake sockets), two hundred iterations —
// 768000 samples per application.
package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"earlybird/internal/dlb"
	"earlybird/internal/rng"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// Config is a study geometry plus master seed. The JSON form is the wire
// geometry of the serve layer's study service.
type Config struct {
	Trials     int    `json:"trials"`
	Ranks      int    `json:"ranks"`
	Iterations int    `json:"iterations"`
	Threads    int    `json:"threads"`
	Seed       uint64 `json:"seed"`
}

// Samples returns the total sample count of the geometry:
// trials x ranks x iterations x threads.
func (c Config) Samples() int { return c.Trials * c.Ranks * c.Iterations * c.Threads }

// DefaultConfig returns the paper's geometry (10 x 8 x 200 x 48).
func DefaultConfig() Config {
	return Config{Trials: 10, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1}
}

// SmallConfig returns a reduced geometry for fast tests and examples:
// the same thread count (the statistics are per-48-thread sets) with
// fewer trials and iterations.
func SmallConfig() Config {
	return Config{Trials: 3, Ranks: 4, Iterations: 60, Threads: 48, Seed: 1}
}

// HugeConfig returns a geometry with exactly 100x the paper's sample
// count — 10 trials, 32 ranks, 5000 iterations, 48 threads: 76.8 million
// samples. Materialised this is a 614 MB tensor; it exists to exercise
// the streaming pipeline, which analyses it in bounded memory (see
// examples/streaming-study).
func HugeConfig() Config {
	return Config{Trials: 10, Ranks: 32, Iterations: 5000, Threads: 48, Seed: 1}
}

// Validate checks the geometry: every dimension positive, and a sample
// count that fits an int, so Samples never wraps to a small value that
// would slip under a caller's size limit.
func (c Config) Validate() error {
	if c.Trials < 1 || c.Ranks < 1 || c.Iterations < 1 || c.Threads < 1 {
		return fmt.Errorf("cluster: non-positive geometry %+v", c)
	}
	n := uint64(1)
	for _, d := range [...]int{c.Trials, c.Ranks, c.Iterations, c.Threads} {
		hi, lo := bits.Mul64(n, uint64(d))
		if hi != 0 || lo > math.MaxInt {
			return fmt.Errorf("cluster: geometry %+v has more than %d samples", c, math.MaxInt)
		}
		n = lo
	}
	return nil
}

// BlockObserver consumes process-iteration sample blocks as they are
// produced by a fill. The slice passed to ObserveBlock is only valid for
// the duration of the call and must not be mutated or retained.
type BlockObserver interface {
	ObserveBlock(trial, rank, iter int, times []float64)
}

// ProgressSink receives live fill telemetry — the observer-hook half of
// the TALP-style live performance tracking (internal/telemetry provides
// the tracker half). Implementations must be safe for concurrent use:
// every fill worker calls ObserveFill after every produced block.
//
// No-perturbation contract: a sink only ever receives counts and
// durations, never the sample slice, so it cannot perturb the result
// path (pinned by golden fingerprints with and without a sink). Detached,
// it costs a predicted nil check per block; attached, two clock reads
// per block. Fill has one loop body for both cases: a separate detached
// copy of the loop, kept on the theory that hoisting the branch made
// telemetry free, measured no faster: BenchmarkFillDLB/static took
// 13.14 ms with the copy and 13.13 ms without (best of 5 runs, median
// over 10 interleaved pairs, GOMAXPROCS=1, 2-CPU AMD EPYC, Go 1.24).
type ProgressSink interface {
	// ObserveFill reports one produced process-iteration block: its
	// sample count and the worker time spent filling it.
	ObserveFill(samples int, busy time.Duration)
	// ObserveLend reports a DLB iteration boundary at which n ranks ran
	// on a lent (non-base) thread allocation. Never called under the
	// static policy.
	ObserveLend(n int)
}

// Job describes one fill: a model over a geometry under a rebalancing
// policy, with everything the produced blocks feed. Only Model and
// Config are required.
type Job struct {
	Model  workload.Model
	Config Config
	// Policy is the rebalancing policy; the zero Spec is static.
	Policy dlb.Spec
	// Workers bounds the fill goroutines; <= 0 means GOMAXPROCS. The
	// campaign engine sets it to divide the machine between concurrent
	// studies instead of oversubscribing it.
	Workers int
	// Sink, when non-nil, receives every sample in place (zero copy); it
	// must match Config's geometry and the caller seals it afterwards.
	// When nil, blocks are discarded once observed, so an aggregate-only
	// fill runs in O(workers x threads) live sample memory.
	Sink *trace.Sink
	// NewObserver, when non-nil, is invoked once per fill worker; each
	// worker feeds its own observer, so observers need no locking.
	NewObserver func() BlockObserver
	// Progress, when non-nil, receives live fill telemetry.
	Progress ProgressSink
}

// Fill runs the job and returns the observers NewObserver created, for
// the caller to merge. The samples are deterministic in Config.Seed
// regardless of worker count, because every (trial, rank, iteration)
// derives its own random stream.
//
// Fill works on tasks. Under the static policy a task is one
// (trial, rank) stripe. Under LeWI or DROM a task is one whole trial,
// because the balancer couples that trial's ranks: at every iteration
// boundary it sees the per-rank finish times and re-divides the trial's
// thread budget, and a rank running on alloc threads instead of its base
// complement has its (fixed-size) block scaled by base/alloc — the
// work-conserving model of running the same work on fewer or more
// cores. Within a task iterations are outer and ranks inner, so the
// balancer decides iteration i+1 from iteration i. Rebalancing is
// strictly per trial, so trial-sharded federation stays exact under any
// policy.
//
// Worker w owns the contiguous task range stripeRange(tasks, workers, w),
// fixed up front, so the partition of blocks across observers is
// deterministic too. Observer state must still be merge-order-independent
// (as the mergeable accumulators in stats and analysis are).
func Fill(job Job) ([]BlockObserver, error) {
	cfg := job.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	policy, err := job.Policy.Resolve()
	if err != nil {
		return nil, err
	}
	if s := job.Sink; s != nil {
		if s.Trials() != cfg.Trials || s.Ranks() != cfg.Ranks ||
			s.Iterations() != cfg.Iterations || s.Threads() != cfg.Threads {
			return nil, fmt.Errorf("cluster: sink geometry %dx%dx%dx%d does not match config %+v",
				s.Trials(), s.Ranks(), s.Iterations(), s.Threads(), cfg)
		}
	}
	taskRanks := cfg.Ranks
	if policy.IsStatic() {
		taskRanks = 1
	}
	tasks := cfg.Trials * cfg.Ranks / taskRanks
	workers := job.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, tasks)

	root := rng.New(cfg.Seed)
	var wg sync.WaitGroup
	var observers []BlockObserver
	for w := 0; w < workers; w++ {
		var obs BlockObserver
		if job.NewObserver != nil {
			obs = job.NewObserver()
			observers = append(observers, obs)
		}
		lo, hi := stripeRange(tasks, workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fillTasks(&job, policy, root, taskRanks, lo, hi, obs)
		}()
	}
	wg.Wait()
	return observers, nil
}

// fillTasks is the fill loop: one worker's tasks [lo, hi), each
// taskRanks consecutive ranks of one trial starting at stripe
// task*taskRanks.
func fillTasks(job *Job, policy dlb.Spec, root *rng.Source, taskRanks, lo, hi int, obs BlockObserver) {
	cfg, model, sink, progress := job.Config, job.Model, job.Sink, job.Progress
	// Only a rebalancing balancer reads the finish times; computing them
	// under static costs about 8% of a static fill at GOMAXPROCS=1.
	coupled := !policy.IsStatic()
	var scratch []float64
	if sink == nil {
		scratch = make([]float64, cfg.Threads)
	}
	finish := make([]float64, taskRanks)
	writers := make([]*trace.StripeWriter, taskRanks)
	for task := lo; task < hi; task++ {
		first := task * taskRanks
		trial, rank0 := first/cfg.Ranks, first%cfg.Ranks
		bal := policy.NewBalancer(taskRanks, cfg.Threads)
		if sink != nil {
			for r := range writers {
				writers[r] = sink.Stripe(trial, rank0+r)
			}
		}
		for i := 0; i < cfg.Iterations; i++ {
			alloc := bal.Alloc(i)
			lent := 0
			for r := 0; r < taskRanks; r++ {
				rank, threads := rank0+r, alloc[r]
				var start time.Time
				if progress != nil {
					start = time.Now()
				}
				out := scratch
				if sink != nil {
					out = writers[r].AppendWith(func(out []float64) {
						model.FillProcessIteration(root, trial, rank, i, out)
						scaleBlock(out, cfg.Threads, threads)
					})
				} else {
					model.FillProcessIteration(root, trial, rank, i, out)
					scaleBlock(out, cfg.Threads, threads)
				}
				if threads != cfg.Threads {
					lent++
				}
				if coupled {
					finish[r] = blockMax(out)
				}
				if obs != nil {
					obs.ObserveBlock(trial, rank, i, out)
				}
				if progress != nil {
					progress.ObserveFill(len(out), time.Since(start))
				}
			}
			bal.Observe(i, finish)
			if lent > 0 && progress != nil {
				progress.ObserveLend(lent)
			}
		}
	}
}

// RunColumnarDLB fills the study into a fresh sink and returns the
// sealed dataset: the form the campaign engine caches.
// The dataset fingerprint is accumulated stripe by stripe during the
// fill, so Seal pays no second pass over the data. workers <= 0 means
// GOMAXPROCS. It is a convenience over Fill for callers that want a
// sealed dataset; the service benchmark module (servicebench) calls it, so
// its signature stays fixed.
func RunColumnarDLB(model workload.Model, cfg Config, policy dlb.Spec, workers int) (*trace.Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sink := trace.NewSink(model.Name(), cfg.Trials, cfg.Ranks, cfg.Iterations, cfg.Threads)
	if _, err := Fill(Job{Model: model, Config: cfg, Policy: policy, Workers: workers, Sink: sink}); err != nil {
		return nil, err
	}
	return sink.Seal()
}

// RunStreamDLB is Fill without a progress sink. It stays as a forward
// with a fixed signature because the service benchmark module
// (servicebench) calls it; new code should call Fill.
func RunStreamDLB(model workload.Model, cfg Config, policy dlb.Spec, workers int, sink *trace.Sink, newObserver func() BlockObserver) ([]BlockObserver, error) {
	return Fill(Job{Model: model, Config: cfg, Policy: policy, Workers: workers, Sink: sink, NewObserver: newObserver})
}

// stripeRange divides tasks contiguous stripes among workers: worker w
// owns [w*tasks/workers, (w+1)*tasks/workers), so every worker's share
// differs by at most one stripe and the assignment is a pure function
// of (tasks, workers) — no channel, no scheduler-dependent hand-off.
func stripeRange(tasks, workers, w int) (lo, hi int) {
	return w * tasks / workers, (w + 1) * tasks / workers
}

// scaleBlock applies the work-conserving core-count model: the same
// block of work on alloc threads instead of base takes base/alloc times
// as long per sample.
func scaleBlock(out []float64, base, alloc int) {
	if alloc == base || alloc <= 0 {
		return
	}
	f := float64(base) / float64(alloc)
	for i := range out {
		out[i] *= f
	}
}

// blockMax returns the block's finish time: the max over its samples.
func blockMax(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
