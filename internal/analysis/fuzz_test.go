package analysis

import (
	"bytes"
	"runtime"
	"testing"

	"earlybird/internal/stats"
	"earlybird/internal/wire"
)

// fuzzAllocBound is the most a decode may allocate for an n-byte input.
func fuzzAllocBound(n int) uint64 { return 64*uint64(n) + 256<<10 }

func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// codec is the state codec both accumulators implement.
type codec interface {
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

// checkDecode runs the properties shared by the accumulator fuzz
// targets: decoding never panics and allocates in proportion to its
// input, and an accepted state re-encodes to bytes that decode to the
// same state. It returns the decoded state and a second decoded copy,
// or false when in was rejected.
func checkDecode[T codec](t *testing.T, in []byte, fresh func() T) (T, T, bool) {
	t.Helper()
	dec, back := fresh(), fresh()
	var err error
	if alloc := allocDelta(func() { err = dec.UnmarshalBinary(in) }); alloc > fuzzAllocBound(len(in)) {
		t.Fatalf("%d-byte input allocated %d bytes", len(in), alloc)
	}
	if err != nil {
		return dec, back, false
	}
	enc, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("re-encoded state rejected: %v", err)
	}
	if again, _ := back.MarshalBinary(); !bytes.Equal(again, enc) {
		t.Fatal("state moved across a re-encode")
	}
	return dec, back, true
}

// FuzzMetricsAccumulatorUnmarshal: the checkDecode properties, and an
// accepted state merges twice into a fresh accumulator and finalizes.
func FuzzMetricsAccumulatorUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		dec, back, ok := checkDecode(t, in, func() *MetricsAccumulator { return new(MetricsAccumulator) })
		if !ok {
			return
		}
		blocks := dec.Blocks()
		acc := NewMetricsAccumulator(dec.app, dec.threshold)
		acc.Merge(dec)
		acc.Merge(back)
		if acc.Blocks() != 2*blocks {
			t.Fatalf("merged %d blocks, want %d", acc.Blocks(), 2*blocks)
		}
		acc.Finalize()
	})
}

// FuzzTable1AccumulatorUnmarshal: the checkDecode properties, and an
// accepted state merges twice into a fresh accumulator and finalizes.
func FuzzTable1AccumulatorUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		dec, back, ok := checkDecode(t, in, func() *Table1Accumulator { return new(Table1Accumulator) })
		if !ok {
			return
		}
		acc := NewTable1Accumulator(dec.app, dec.alpha)
		acc.Merge(dec)
		acc.Merge(back)
		acc.Finalize()
	})
}

// metricsState is one trial's encoded MetricsAccumulator state with the
// given iteration entries and sketch iterations, each sketch holding
// the single value 1.
func metricsState(t *testing.T, iters, sketchIters []int64) []byte {
	t.Helper()
	var w wire.Writer
	w.U8(metricsCodecVersion)
	w.Str("minife")
	w.F64(DefaultLaggardThresholdSec)
	w.U32(1)
	w.I64(0)                 // trial
	w.I64(int64(len(iters))) // nProc
	for range 3 {
		w.F64(0) // median, reclaimable and ratio sums
	}
	w.I64(0) // laggards
	w.U32(uint32(len(iters)))
	for _, iter := range iters {
		w.I64(iter)
		w.I64(1) // n
		w.F64(1) // sum
		w.F64(1) // max
	}
	sk := stats.NewQuantileSketch(iterSketchCompression)
	sk.Add(1)
	enc, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w.U32(uint32(len(sketchIters)))
	for _, iter := range sketchIters {
		w.I64(iter)
		w.Bytes(enc)
	}
	return w.Buf
}

// TestMetricsAccumulatorRejectsDuplicateEntries: an iteration repeated
// within a trial, or a repeated sketch iteration, is corrupt state;
// before this check the last entry silently won.
func TestMetricsAccumulatorRejectsDuplicateEntries(t *testing.T) {
	if err := new(MetricsAccumulator).UnmarshalBinary(metricsState(t, []int64{0, 1}, []int64{0, 1})); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for name, b := range map[string][]byte{
		"duplicate iteration": metricsState(t, []int64{0, 0}, []int64{0}),
		"duplicate sketch":    metricsState(t, []int64{0}, []int64{0, 0}),
	} {
		if err := new(MetricsAccumulator).UnmarshalBinary(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
