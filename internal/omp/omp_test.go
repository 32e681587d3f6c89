package omp

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelRunsOnEveryThread(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var seen [8]atomic.Int32
	p.Parallel(func(tc *ThreadContext) {
		seen[tc.ThreadNum()].Add(1)
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Errorf("thread %d ran %d times, want 1", i, got)
		}
	}
}

func TestParallelJoins(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var counter atomic.Int64
	p.Parallel(func(tc *ThreadContext) {
		counter.Add(1)
	})
	if counter.Load() != 4 {
		t.Fatalf("Parallel returned before all threads finished: %d", counter.Load())
	}
}

func TestThreadNumAndNumThreads(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	if p.NumThreads() != 5 {
		t.Fatalf("NumThreads = %d", p.NumThreads())
	}
	var ids sync.Map
	p.Parallel(func(tc *ThreadContext) {
		if tc.region.team != 5 {
			t.Errorf("region team = %d", tc.region.team)
		}
		ids.Store(tc.ThreadNum(), true)
	})
	count := 0
	ids.Range(func(_, _ any) bool { count++; return true })
	if count != 5 {
		t.Fatalf("saw %d distinct thread ids, want 5", count)
	}
}

// parallelFor runs a parallel region holding one work-shared loop over
// [0, n).
func parallelFor(p *Pool, n int, sched Schedule, chunk int, body func(i int)) {
	p.Parallel(func(tc *ThreadContext) { tc.For(n, sched, chunk, body) })
}

// coverage checks that a schedule covers each iteration exactly once.
func coverage(t *testing.T, nthreads, n int, sched Schedule, chunk int) {
	t.Helper()
	p := NewPool(nthreads)
	defer p.Close()
	counts := make([]atomic.Int32, n)
	parallelFor(p, n, sched, chunk, func(i int) {
		counts[i].Add(1)
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("%v/chunk=%d nthreads=%d n=%d: iteration %d executed %d times",
				sched, chunk, nthreads, n, i, got)
		}
	}
}

func TestScheduleCoverage(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		for _, chunk := range []int{0, 1, 3, 7} {
			for _, n := range []int{0, 1, 13, 200} {
				coverage(t, 6, n, sched, chunk)
			}
		}
	}
}

func TestScheduleCoverageProperty(t *testing.T) {
	f := func(rawThreads, rawN, rawChunk uint8, rawSched uint8) bool {
		nthreads := int(rawThreads%8) + 1
		n := int(rawN) % 100
		chunk := int(rawChunk) % 5
		sched := Schedule(rawSched % 3)
		p := NewPool(nthreads)
		defer p.Close()
		counts := make([]atomic.Int32, n)
		parallelFor(p, n, sched, chunk, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStaticBlockPartitionIsContiguous(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var mu sync.Mutex
	ranges := make(map[int][]int)
	p.Parallel(func(tc *ThreadContext) {
		tc.For(10, Static, 0, func(i int) {
			mu.Lock()
			ranges[tc.ThreadNum()] = append(ranges[tc.ThreadNum()], i)
			mu.Unlock()
		})
	})
	// 10 iterations over 4 threads: sizes 3,3,2,2 and contiguous.
	wantSizes := []int{3, 3, 2, 2}
	for tid, want := range wantSizes {
		got := ranges[tid]
		if len(got) != want {
			t.Fatalf("thread %d got %d iterations, want %d", tid, len(got), want)
		}
		for k := 1; k < len(got); k++ {
			if got[k] != got[k-1]+1 {
				t.Fatalf("thread %d iterations not contiguous: %v", tid, got)
			}
		}
	}
	if ranges[0][0] != 0 || ranges[3][len(ranges[3])-1] != 9 {
		t.Fatalf("partition bounds wrong: %v", ranges)
	}
}

func TestStaticChunkedRoundRobin(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var mu sync.Mutex
	owner := make([]int, 8)
	p.Parallel(func(tc *ThreadContext) {
		tc.For(8, Static, 2, func(i int) {
			mu.Lock()
			owner[i] = tc.ThreadNum()
			mu.Unlock()
		})
	})
	want := []int{0, 0, 1, 1, 0, 0, 1, 1}
	for i := range want {
		if owner[i] != want[i] {
			t.Fatalf("owner = %v, want %v", owner, want)
		}
	}
}

func TestBarrierSynchronises(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var before, after atomic.Int32
	p.Parallel(func(tc *ThreadContext) {
		before.Add(1)
		tc.Barrier()
		// After the barrier every thread must observe all 8 increments.
		if got := before.Load(); got != 8 {
			t.Errorf("after barrier: before = %d, want 8", got)
		}
		after.Add(1)
	})
	if after.Load() != 8 {
		t.Fatalf("after = %d", after.Load())
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const phases = 50
	var phase [phases]atomic.Int32
	p.Parallel(func(tc *ThreadContext) {
		for k := 0; k < phases; k++ {
			phase[k].Add(1)
			tc.Barrier()
			if got := phase[k].Load(); got != 4 {
				t.Errorf("phase %d: count %d, want 4", k, got)
			}
			tc.Barrier()
		}
	})
}

func TestStandaloneBarrier(t *testing.T) {
	b := NewBarrier(3)
	if b.n != 3 {
		t.Fatalf("parties = %d", b.n)
	}
	var wg sync.WaitGroup
	var hits atomic.Int32
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				b.Wait()
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if hits.Load() != 300 {
		t.Fatalf("hits = %d", hits.Load())
	}
}

func TestNoWaitSemantics(t *testing.T) {
	// With a dynamic schedule and one deliberately slow iteration, fast
	// threads must exit the loop (and record their timestamps) before the
	// slow thread finishes — that is the essence of Listing 1's nowait.
	p := NewPool(4)
	defer p.Close()
	slowRelease := make(chan struct{})
	var fastDone atomic.Int32
	var sawEarlyExit atomic.Bool
	p.Parallel(func(tc *ThreadContext) {
		tc.For(4, Dynamic, 1, func(i int) {
			if i == 0 {
				// Laggard iteration: wait until all other threads have
				// exited their loop share.
				for fastDone.Load() < 3 {
				}
				<-slowRelease
			}
		})
		if n := fastDone.Add(1); n == 3 {
			// Three threads exited while the laggard still held iteration
			// 0 — nowait confirmed; release it.
			sawEarlyExit.Store(true)
			close(slowRelease)
		}
	})
	if !sawEarlyExit.Load() {
		t.Fatal("threads did not exit the loop before the laggard finished")
	}
}

func TestMultipleLoopsPerRegion(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var first, second atomic.Int64
	p.Parallel(func(tc *ThreadContext) {
		tc.For(100, Dynamic, 3, func(i int) { first.Add(1) })
		tc.Barrier()
		tc.For(50, Guided, 1, func(i int) { second.Add(1) })
	})
	if first.Load() != 100 || second.Load() != 50 {
		t.Fatalf("loop coverage: first=%d second=%d", first.Load(), second.Load())
	}
}

func TestPoolReusableAcrossRegions(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for r := 0; r < 20; r++ {
		var n atomic.Int32
		p.Parallel(func(tc *ThreadContext) { n.Add(1) })
		if n.Load() != 3 {
			t.Fatalf("region %d: %d threads", r, n.Load())
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestParallelAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Parallel(func(tc *ThreadContext) {})
}

func TestNewPoolInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(0)
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Error("schedule names wrong")
	}
	if Schedule(9).String() != "unknown" {
		t.Error("unknown schedule name")
	}
}
