package miniapps

import (
	"testing"

	"earlybird/internal/omp"
	"earlybird/internal/simclock"
)

func BenchmarkMiniFEMatVec(b *testing.B) {
	a := NewMiniFE(24, 24, 24)
	b.SetBytes(int64(len(a.x) * 27 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MatVec()
	}
}

func BenchmarkMiniFEInstrumentedIteration(b *testing.B) {
	a := NewMiniFE(24, 24, 24)
	pool := omp.NewPool(2)
	defer pool.Close()
	clock := simclock.NewReal()
	rec := Run(a, pool, clock, 1)
	_ = rec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RunIteration(pool, clock, rec, 0)
	}
}

func BenchmarkMiniMDForceSweep(b *testing.B) {
	a := NewMiniMD(6, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ComputeForcesSerial()
	}
}

func BenchmarkMiniQMCMover(b *testing.B) {
	a := NewMiniQMC(16, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.runMover(0, i, 100)
	}
}
