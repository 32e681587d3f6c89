// Package telemetry tracks application live performance *during*
// execution — the TALP-module shape applied to earlybird studies. A
// Tracker follows one in-flight study (blocks and samples produced,
// useful fill time, DLB lend events) and derives live figures from the
// raw counters on demand: fill rate (time-decayed EWMA), ETA, and
// current parallel efficiency (useful-fill-time / workers x wall-time).
// A Registry aggregates the server's trackers for the /v1/progress
// stream, the /metrics endpoint and the adaptive admission watermark.
//
// The feed side is deliberately minimal: a Tracker only ever receives
// counts and durations (cluster.ProgressSink), never sample values or
// slices, so attaching one to a study is provably free of result-path
// side effects — there is no API through which it could perturb the
// data plane. The no-perturbation test in internal/cluster pins the
// dataset fingerprints with and without an attached tracker.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ewmaTau is the time constant of the fill-rate EWMA: an interval dt
// contributes with weight 1-exp(-dt/tau), so on a constant-rate fill the
// estimate converges to the true rate with ~2s memory, while a stall or
// a DLB reallocation shows up within a couple of snapshots.
const ewmaTau = 2 * time.Second

// StudyInfo identifies the study a Tracker follows: its progress ID,
// application name, geometry and the worker count its parallel
// efficiency is measured against.
type StudyInfo struct {
	// ID is the study's progress identity (the serve layer derives it
	// from the resolved spec, so concurrent identical requests share one
	// tracker).
	ID string
	// App is the application model's name.
	App string
	// Trials, Ranks, Iterations, Threads are the study geometry.
	Trials, Ranks, Iterations, Threads int
	// Workers is the fill concurrency the efficiency denominator uses:
	// efficiency = busy / (Workers x wall). <= 0 means 1.
	Workers int
}

// Tracker follows one study's live progress. The feed methods
// (ObserveFill, ObserveLend) are called from concurrent fill workers and
// touch only atomics; Snapshot may be called at any rate from any
// goroutine. Create with New (or NewWithClock for tests).
type Tracker struct {
	info StudyInfo
	now  func() time.Time

	start time.Time

	blocks  atomic.Int64
	samples atomic.Int64
	busyNs  atomic.Int64
	lends   atomic.Int64
	done    atomic.Bool

	// mu guards the EWMA state and the finish time; both are
	// snapshot-side only, never touched by the fill workers.
	mu         sync.Mutex
	ewmaRate   float64 // blocks per second
	rateKnown  bool
	lastBlocks int64
	lastTime   time.Time
	finish     time.Time
}

// New returns a tracker started now.
func New(info StudyInfo) *Tracker { return NewWithClock(info, time.Now) }

// NewWithClock is New with an injectable clock, so estimator tests can
// drive deterministic schedules.
func NewWithClock(info StudyInfo, now func() time.Time) *Tracker {
	if info.Workers <= 0 {
		info.Workers = 1
	}
	t := &Tracker{info: info, now: now}
	t.start = now()
	t.lastTime = t.start
	return t
}

// ID returns the tracker's progress identity.
func (t *Tracker) ID() string { return t.info.ID }

// ObserveFill implements cluster.ProgressSink: one produced sample block
// of n samples that took busy of one worker's time.
func (t *Tracker) ObserveFill(n int, busy time.Duration) {
	t.blocks.Add(1)
	t.samples.Add(int64(n))
	t.busyNs.Add(int64(busy))
}

// ObserveLend implements cluster.ProgressSink: a DLB iteration boundary
// at which n ranks ran on a lent (non-base) thread allocation.
func (t *Tracker) ObserveLend(n int) { t.lends.Add(int64(n)) }

// Finish marks the study complete, freezing the elapsed clock.
func (t *Tracker) Finish() {
	t.mu.Lock()
	if t.finish.IsZero() {
		t.finish = t.now()
	}
	t.mu.Unlock()
	t.done.Store(true)
}

// totalBlocks returns the study's full block count.
func (t *Tracker) totalBlocks() int64 {
	return int64(t.info.Trials) * int64(t.info.Ranks) * int64(t.info.Iterations)
}

// Progress is one live snapshot of a study — a /v1/progress NDJSON line.
type Progress struct {
	ID  string `json:"id"`
	App string `json:"app"`
	// Done reports the study finished; the snapshot is then final.
	Done bool `json:"done"`
	// TrialsDone is the completed trials-worth of blocks
	// (BlocksDone / blocks-per-trial): monotone in fill progress even
	// though stripe-parallel workers finish blocks out of trial order.
	TrialsDone  int   `json:"trials_done"`
	TrialsTotal int   `json:"trials_total"`
	BlocksDone  int64 `json:"blocks_done"`
	BlocksTotal int64 `json:"blocks_total"`
	Samples     int64 `json:"samples"`
	// ElapsedSec is wall time since the tracker started (frozen at
	// Finish).
	ElapsedSec float64 `json:"elapsed_sec"`
	// RateBlocksPerSec is the EWMA fill rate; 0 until the first
	// inter-snapshot interval has elapsed.
	RateBlocksPerSec float64 `json:"rate_blocks_per_sec"`
	// ETASec estimates remaining wall time from the EWMA rate; always
	// >= 0, and 0 while the rate is still unknown or the study is done.
	ETASec float64 `json:"eta_sec"`
	// Efficiency is the current parallel efficiency:
	// useful-fill-time / (workers x wall-time), clamped to [0, 1].
	Efficiency float64 `json:"efficiency"`
	// LendEvents counts DLB iteration boundaries observed on a lent
	// allocation (0 under the static policy).
	LendEvents int64 `json:"lend_events"`
}

// Snapshot derives the current Progress and advances the rate EWMA.
func (t *Tracker) Snapshot() Progress {
	blocks := t.blocks.Load()
	busy := time.Duration(t.busyNs.Load())
	total := t.totalBlocks()

	t.mu.Lock()
	now := t.now()
	end := now
	if !t.finish.IsZero() {
		end = t.finish
	}
	if dt := now.Sub(t.lastTime); dt > 0 {
		inst := float64(blocks-t.lastBlocks) / dt.Seconds()
		if !t.rateKnown {
			t.ewmaRate = inst
			t.rateKnown = true
		} else {
			w := 1 - math.Exp(-dt.Seconds()/ewmaTau.Seconds())
			t.ewmaRate += w * (inst - t.ewmaRate)
		}
		t.lastBlocks = blocks
		t.lastTime = now
	}
	rate := t.ewmaRate
	t.mu.Unlock()

	elapsed := end.Sub(t.start)
	p := Progress{
		ID:               t.info.ID,
		App:              t.info.App,
		Done:             t.done.Load(),
		TrialsTotal:      t.info.Trials,
		BlocksDone:       blocks,
		BlocksTotal:      total,
		Samples:          t.samples.Load(),
		ElapsedSec:       elapsed.Seconds(),
		RateBlocksPerSec: rate,
		LendEvents:       t.lends.Load(),
	}
	if perTrial := int64(t.info.Ranks) * int64(t.info.Iterations); perTrial > 0 {
		p.TrialsDone = int(blocks / perTrial)
	}
	if remaining := total - blocks; remaining > 0 && rate > 0 && !p.Done {
		p.ETASec = float64(remaining) / rate
	}
	if elapsed > 0 {
		p.Efficiency = clamp01(busy.Seconds() / (float64(t.info.Workers) * elapsed.Seconds()))
	}
	return p
}

// busyAndWall returns the raw efficiency numerator and denominator —
// the registry aggregates these across trackers rather than averaging
// per-study ratios, so a large study weighs more than a tiny one.
func (t *Tracker) busyAndWall() (busy, wall time.Duration) {
	t.mu.Lock()
	end := t.now()
	if !t.finish.IsZero() {
		end = t.finish
	}
	t.mu.Unlock()
	wall = end.Sub(t.start) * time.Duration(t.info.Workers)
	return time.Duration(t.busyNs.Load()), wall
}

func clamp01(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
