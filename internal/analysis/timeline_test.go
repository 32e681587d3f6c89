package analysis

import (
	"slices"
	"strings"
	"testing"

	"earlybird/internal/trace"
)

func timelineDataset() *trace.Dataset {
	// 2 trials x 2 ranks x 5 iterations x 4 threads; laggards planted in
	// iterations 1 (one process) and 3 (all four processes).
	d := trace.NewDataset("tl", 2, 2, 5, 4)
	eachBlock(d, func(trial, rank, iter int, xs []float64) {
		for i := range xs {
			xs[i] = 0.020
		}
		if iter == 3 || (iter == 1 && trial == 0 && rank == 1) {
			xs[0] = 0.025
		}
	})
	return d
}

func TestLaggardTimelineCounts(t *testing.T) {
	tl := NewLaggardTimeline(timelineDataset(), 1e-3)
	want := []int{0, 1, 0, 4, 0}
	if len(tl.Counts) != len(want) {
		t.Fatalf("counts = %v", tl.Counts)
	}
	for i, w := range want {
		if tl.Counts[i] != w {
			t.Fatalf("iteration %d: count %d, want %d", i, tl.Counts[i], w)
		}
	}
	if tl.PerIteration != 4 {
		t.Errorf("per-iteration = %d", tl.PerIteration)
	}
	if tl.ActiveIterations() != 2 {
		t.Errorf("active = %d", tl.ActiveIterations())
	}
	if max := slices.Max(tl.Counts); max != 4 {
		t.Errorf("max = %d", max)
	}
}

func TestLaggardTimelineBurstiness(t *testing.T) {
	tl := NewLaggardTimeline(timelineDataset(), 1e-3)
	// Counts {0,1,0,4,0}: mean 1, variance (1+0+1+9+1... ) / 4 = 3 -> 3.
	if b := tl.Burstiness(); b < 2.9 || b > 3.1 {
		t.Errorf("burstiness = %v, want ~3 (clustered)", b)
	}
	// No laggards at a huge threshold: burstiness 0.
	quiet := NewLaggardTimeline(timelineDataset(), 1)
	if quiet.Burstiness() != 0 {
		t.Errorf("quiet burstiness = %v", quiet.Burstiness())
	}
}

func TestLaggardTimelineCSV(t *testing.T) {
	tl := NewLaggardTimeline(timelineDataset(), 1e-3)
	csv := tl.CSV()
	if !strings.HasPrefix(csv, "iteration,laggard_count\n") {
		t.Fatalf("csv header: %q", csv[:30])
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 6 {
		t.Fatal("csv rows")
	}
}
