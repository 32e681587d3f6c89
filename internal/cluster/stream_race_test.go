package cluster

import (
	"sync"
	"testing"
	"time"

	"earlybird/internal/noise"
	"earlybird/internal/workload"
)

// blockRecorder copies every observed block into a shared slice indexed
// by the block's stripe position. Each index is written by exactly one
// worker (stripe pinning assigns every (trial, rank) to one worker), so
// the only sharing is the slice header — which the race detector watches
// for us.
type blockRecorder struct {
	cfg    Config
	blocks [][]float64
}

func (r *blockRecorder) ObserveBlock(trial, rank, iter int, times []float64) {
	s := ((trial*r.cfg.Ranks)+rank)*r.cfg.Iterations + iter
	r.blocks[s] = append([]float64(nil), times...)
}

// TestStreamPooledScratchNoAliasing proves that the pooled per-worker
// scratch streams (workload's streamPool, borrowed for every noise fill
// and every rng.ChildInto re-seed) never alias between workers: a noisy
// model is filled with 8 concurrent workers and with 1, and every
// (trial, rank, iter) block must match bit-for-bit. If two workers ever
// shared a pooled stream, the interleaved re-seeds would corrupt the
// draws and some block would differ; run under -race (`make race`) the
// shared *rng.Source state itself becomes a detector target.
func TestStreamPooledScratchNoAliasing(t *testing.T) {
	cfg := Config{Trials: 4, Ranks: 4, Iterations: 30, Threads: 16, Seed: 77}
	model := &workload.Noisy{
		Base:  workload.DefaultMiniMD(),
		Noise: noise.RandomInterrupt{Rate: 200, MeanCost: 20 * time.Microsecond},
	}

	run := func(workers int) [][]float64 {
		t.Helper()
		rec := blockRecorder{cfg: cfg, blocks: make([][]float64, cfg.Trials*cfg.Ranks*cfg.Iterations)}
		var mu sync.Mutex
		handed := 0
		_, err := Fill(Job{Model: model, Config: cfg, Workers: workers, NewObserver: func() BlockObserver {
			mu.Lock()
			handed++
			mu.Unlock()
			return &rec
		}})
		if err != nil {
			t.Fatal(err)
		}
		if workers > 1 && handed < 2 {
			t.Fatalf("want >= 2 worker observers, got %d", handed)
		}
		return rec.blocks
	}

	serial := run(1)
	concurrent := run(8)
	for s := range serial {
		if len(serial[s]) != cfg.Threads || len(concurrent[s]) != cfg.Threads {
			t.Fatalf("block %d: missing or short (serial %d, concurrent %d)",
				s, len(serial[s]), len(concurrent[s]))
		}
		for i := range serial[s] {
			if serial[s][i] != concurrent[s][i] {
				t.Fatalf("block %d sample %d differs: serial %v concurrent %v — pooled streams aliased",
					s, i, serial[s][i], concurrent[s][i])
			}
		}
	}
}
