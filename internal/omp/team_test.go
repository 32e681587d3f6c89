package omp

import (
	"sync/atomic"
	"testing"
)

// TestParallelTeamSubteam: a region forked on a subteam must see the
// subteam size everywhere — team size, loop partitioning and barriers —
// while the pool's spare threads stay untouched.
func TestParallelTeamSubteam(t *testing.T) {
	p := NewPool(8)
	defer p.Close()

	var ran atomic.Int64
	var covered [40]atomic.Int64
	p.ParallelTeam(3, func(tc *ThreadContext) {
		ran.Add(1)
		if tc.region.team != 3 {
			t.Errorf("team = %d, want 3", tc.region.team)
		}
		if tc.ThreadNum() >= 3 {
			t.Errorf("thread %d joined a team of 3", tc.ThreadNum())
		}
		tc.Barrier() // must not wait for the 5 idle pool threads
		tc.For(len(covered), Static, 0, func(i int) { covered[i].Add(1) })
	})
	if ran.Load() != 3 {
		t.Fatalf("region ran on %d threads, want 3", ran.Load())
	}
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("iteration %d executed %d times", i, covered[i].Load())
		}
	}
}

// TestParallelTeamFullAndClamped: the full-size team behaves exactly
// like Parallel, and an oversized request clamps to the pool.
func TestParallelTeamFullAndClamped(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{4, 9} {
		var ran atomic.Int64
		p.ParallelTeam(n, func(tc *ThreadContext) {
			if tc.region.team != 4 {
				t.Errorf("team = %d, want 4", tc.region.team)
			}
			ran.Add(1)
			tc.Barrier()
		})
		if ran.Load() != 4 {
			t.Fatalf("team %d: ran on %d threads", n, ran.Load())
		}
	}
}

// TestParallelTeamSequential: shrinking and growing the team across
// regions reuses the same pool safely.
func TestParallelTeamSequential(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	for _, n := range []int{6, 1, 3, 6, 2} {
		var total atomic.Int64
		p.ParallelTeam(n, func(tc *ThreadContext) {
			total.Add(int64(tc.ThreadNum()))
			tc.Barrier()
		})
		if want := int64(n * (n - 1) / 2); total.Load() != want {
			t.Fatalf("team %d: thread-number sum %d, want %d", n, total.Load(), want)
		}
	}
}
