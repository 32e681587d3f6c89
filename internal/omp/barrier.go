package omp

import "sync"

// Barrier is a reusable synchronisation barrier for a fixed party count,
// equivalent to "#pragma omp barrier" inside a parallel region. It uses
// generation counting so it can be waited on any number of times.
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

// NewBarrier returns a barrier for n parties (n >= 1).
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("omp: barrier party count must be >= 1")
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until n parties have called Wait for the current generation,
// then releases them all and resets for the next generation.
func (b *Barrier) Wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
