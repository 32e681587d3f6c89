// How a study's samples enter and leave a Dataset.
//
// Data enters through a Sink: per-(trial, rank) StripeWriters append one
// process iteration at a time, each writer independent of the others so a
// parallel fill needs no locking. Every append folds the new samples into
// the stripe's running FNV-1a hash, so by the time Seal combines the
// stripes the dataset fingerprint has already been paid for — no second
// pass over the data. Data leaves through a Cursor: block-at-a-time
// iteration over process iterations, each block a zero-copy view of the
// column.

package trace

import (
	"fmt"
	"math"
)

// FNV-1a 64-bit parameters, inlined so per-sample hashing avoids the
// hash.Hash interface in the fill hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvU64 folds the eight little-endian bytes of v into h (FNV-1a).
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// fnvString folds the bytes of s into h (FNV-1a).
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// stripeHash returns the FNV-1a hash of one (trial, rank) stripe's
// samples in (iteration, thread) order.
func stripeHash(xs []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, x := range xs {
		h = fnvU64(h, math.Float64bits(x))
	}
	return h
}

// combineFingerprint folds the app name, geometry and per-stripe hashes
// (in trial-major order) into the dataset fingerprint.
func combineFingerprint(app string, trials, ranks, iterations, threads int, stripes []uint64) uint64 {
	h := fnvString(uint64(fnvOffset64), app)
	h = fnvU64(h, uint64(trials))
	h = fnvU64(h, uint64(ranks))
	h = fnvU64(h, uint64(iterations))
	h = fnvU64(h, uint64(threads))
	for _, s := range stripes {
		h = fnvU64(h, s)
	}
	return h
}

// Block is one process iteration yielded by a Cursor: its coordinates plus
// a zero-copy view of the thread samples. The view is only valid until the
// cursor advances; consumers must not mutate or retain it.
type Block struct {
	Trial, Rank, Iter int
	Times             []float64
}

// Cursor iterates a study block-at-a-time in deterministic (trial, rank,
// iteration) order. It is not safe for concurrent use.
type Cursor struct {
	d                *Dataset
	fromIter, toIter int
	t, r, i          int
	cur              Block
}

func newCursor(d *Dataset, fromIter, toIter int) *Cursor {
	if fromIter < 0 {
		fromIter = 0
	}
	if toIter > d.Iterations {
		toIter = d.Iterations
	}
	return &Cursor{d: d, fromIter: fromIter, toIter: toIter, i: fromIter - 1}
}

// FromIter returns the inclusive lower iteration bound of the cursor.
func (c *Cursor) FromIter() int { return c.fromIter }

// ToIter returns the exclusive upper iteration bound of the cursor.
func (c *Cursor) ToIter() int { return c.toIter }

// Next advances to the next process iteration; it returns false when the
// cursor is exhausted.
func (c *Cursor) Next() bool {
	if c.fromIter >= c.toIter || c.t >= c.d.Trials {
		return false
	}
	c.i++
	if c.i >= c.toIter {
		c.i = c.fromIter
		c.r++
		if c.r >= c.d.Ranks {
			c.r = 0
			c.t++
			if c.t >= c.d.Trials {
				return false
			}
		}
	}
	c.cur = Block{Trial: c.t, Rank: c.r, Iter: c.i, Times: c.d.Block(c.t, c.r, c.i)}
	return true
}

// Block returns the current block. Only valid after Next returned true.
func (c *Cursor) Block() Block { return c.cur }

// Sink is an append-only writer for one study. Each (trial, rank) stripe
// has an independent StripeWriter, so a parallel fill writes without
// locks; every append folds the samples into the stripe's running hash,
// making the final fingerprint free at Seal time.
type Sink struct {
	d       *Dataset
	stripes []sinkStripe
}

type sinkStripe struct {
	next int
	hash uint64
}

// NewSink returns a sink for the given geometry.
func NewSink(app string, trials, ranks, iterations, threads int) *Sink {
	d := NewDataset(app, trials, ranks, iterations, threads)
	stripes := make([]sinkStripe, trials*ranks)
	for i := range stripes {
		stripes[i].hash = fnvOffset64
	}
	return &Sink{d: d, stripes: stripes}
}

// App returns the application name the sink was created with.
func (s *Sink) App() string { return s.d.App }

// Trials returns the sink's trial count.
func (s *Sink) Trials() int { return s.d.Trials }

// Ranks returns the sink's rank count.
func (s *Sink) Ranks() int { return s.d.Ranks }

// Iterations returns the sink's iteration count.
func (s *Sink) Iterations() int { return s.d.Iterations }

// Threads returns the sink's thread count.
func (s *Sink) Threads() int { return s.d.Threads }

// Stripe returns the writer for one (trial, rank) stripe. Distinct
// stripes may be written from distinct goroutines concurrently; a single
// stripe's writer must only be used from one goroutine at a time.
func (s *Sink) Stripe(trial, rank int) *StripeWriter {
	if trial < 0 || trial >= s.d.Trials || rank < 0 || rank >= s.d.Ranks {
		panic(fmt.Sprintf("trace: stripe (%d,%d) outside %dx%d", trial, rank, s.d.Trials, s.d.Ranks))
	}
	return &StripeWriter{
		sink:   s,
		stripe: &s.stripes[trial*s.d.Ranks+rank],
		base:   (trial*s.d.Ranks + rank) * s.d.Iterations * s.d.Threads,
	}
}

// StripeWriter appends process iterations to one (trial, rank) stripe in
// iteration order.
type StripeWriter struct {
	sink   *Sink
	stripe *sinkStripe
	base   int
}

// Written returns how many iterations have been appended to the stripe.
func (w *StripeWriter) Written() int { return w.stripe.next }

// next reserves the destination view of the next iteration.
func (w *StripeWriter) nextView() []float64 {
	d := w.sink.d
	if w.stripe.next >= d.Iterations {
		panic("trace: stripe already complete")
	}
	off := w.base + w.stripe.next*d.Threads
	return d.times[off : off+d.Threads : off+d.Threads]
}

// commit folds the just-written view into the stripe hash and advances.
func (w *StripeWriter) commit(out []float64) {
	h := w.stripe.hash
	for _, x := range out {
		h = fnvU64(h, math.Float64bits(x))
	}
	w.stripe.hash = h
	w.stripe.next++
}

// Append copies one process iteration's thread samples into the stripe.
func (w *StripeWriter) Append(xs []float64) {
	out := w.nextView()
	if len(xs) != len(out) {
		panic(fmt.Sprintf("trace: appending %d samples to a %d-thread stripe", len(xs), len(out)))
	}
	copy(out, xs)
	w.commit(out)
}

// AppendWith hands the next iteration's backing storage to fill — letting
// producers write samples in place with no copy — then commits it. It
// returns the written view so the caller can feed subscribed accumulators
// before moving on; the view must not be mutated afterwards.
func (w *StripeWriter) AppendWith(fill func(out []float64)) []float64 {
	out := w.nextView()
	fill(out)
	w.commit(out)
	return out
}

// Seal verifies that every stripe is complete, combines the per-stripe
// hashes into the dataset fingerprint, and returns the finished dataset.
// The sink must not be written after Seal.
func (s *Sink) Seal() (*Dataset, error) {
	d := s.d
	hashes := make([]uint64, len(s.stripes))
	for i := range s.stripes {
		if s.stripes[i].next != d.Iterations {
			t, r := i/d.Ranks, i%d.Ranks
			return nil, fmt.Errorf("trace: stripe (%d,%d) has %d of %d iterations",
				t, r, s.stripes[i].next, d.Iterations)
		}
		hashes[i] = s.stripes[i].hash
	}
	d.fp = combineFingerprint(d.App, d.Trials, d.Ranks, d.Iterations, d.Threads, hashes)
	d.hasFP = true
	return d, nil
}
