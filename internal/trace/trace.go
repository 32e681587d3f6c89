// The Recorder mirrors Listing 1 of the paper:
//
//	rec := trace.NewRecorder(clock, iters, nthreads)
//	pool.Parallel(func(tc *omp.ThreadContext) {
//	    t := tc.ThreadNum()
//	    tc.Barrier()
//	    rec.Enter(iter, t, t) // clock_gettime after the barrier
//	    tc.For(n, omp.Static, 0, body) // nowait
//	    rec.Exit(iter, t, t)  // clock_gettime right after own share
//	    tc.Barrier()
//	})

package trace

import (
	"fmt"
	"time"

	"earlybird/internal/simclock"
)

// Recorder collects enter/exit timestamp pairs for a fixed number of
// iterations and threads. Each (iteration, thread) cell is written by
// exactly one thread, so no synchronisation is required beyond the
// region's own barriers — the same property the paper's array-indexed
// instrumentation relies on.
type Recorder struct {
	clock      simclock.Clock
	iterations int
	threads    int
	enter      []time.Duration // [iter*threads + thread]
	exit       []time.Duration
}

// NewRecorder returns a Recorder for the given geometry.
func NewRecorder(clock simclock.Clock, iterations, threads int) *Recorder {
	if iterations < 1 || threads < 1 {
		panic("trace: recorder geometry must be positive")
	}
	return &Recorder{
		clock:      clock,
		iterations: iterations,
		threads:    threads,
		enter:      make([]time.Duration, iterations*threads),
		exit:       make([]time.Duration, iterations*threads),
	}
}

// Iterations returns the number of iterations the recorder holds.
func (r *Recorder) Iterations() int { return r.iterations }

// Threads returns the number of threads the recorder holds.
func (r *Recorder) Threads() int { return r.threads }

func (r *Recorder) idx(iter, thread int) int {
	if iter < 0 || iter >= r.iterations || thread < 0 || thread >= r.threads {
		panic(fmt.Sprintf("trace: index (%d,%d) outside %dx%d", iter, thread, r.iterations, r.threads))
	}
	return iter*r.threads + thread
}

// Enter records the region-entry timestamp for (iter, thread) as observed
// from the given core.
func (r *Recorder) Enter(iter, thread, core int) {
	r.enter[r.idx(iter, thread)] = r.clock.Now(core)
}

// Exit records the region-exit timestamp for (iter, thread) as observed
// from the given core.
func (r *Recorder) Exit(iter, thread, core int) {
	r.exit[r.idx(iter, thread)] = r.clock.Now(core)
}

// ComputeTime returns the derived compute time (exit - enter) of
// (iter, thread).
func (r *Recorder) ComputeTime(iter, thread int) time.Duration {
	i := r.idx(iter, thread)
	return r.exit[i] - r.enter[i]
}

// IterationSeconds returns the compute times of all threads of one
// iteration, in seconds.
func (r *Recorder) IterationSeconds(iter int) []float64 {
	out := make([]float64, r.threads)
	for t := 0; t < r.threads; t++ {
		out[t] = r.ComputeTime(iter, t).Seconds()
	}
	return out
}
