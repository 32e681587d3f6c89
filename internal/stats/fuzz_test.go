package stats

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"earlybird/internal/wire"
)

// encodeSketch writes a sketch encoding field by field, so tests can
// build states MarshalBinary would never produce.
func encodeSketch(compression float64, n int64, min, max float64, cs []centroid) []byte {
	var w wire.Writer
	w.U8(sketchCodecVersion)
	w.F64(compression)
	w.I64(n)
	w.F64(min)
	w.F64(max)
	w.U32(uint32(len(cs)))
	for _, c := range cs {
		w.F64(c.mean)
		w.I64(c.count)
	}
	return w.Buf
}

// TestSketchBinaryRejectsUnreachableState: the decoder refuses every
// state no sequence of Add, AddSorted and Merge calls can produce.
// Before these checks, centroids {3, 1, 2, NaN} decoded and answered
// Quantile(0.5) = 1.5.
func TestSketchBinaryRejectsUnreachableState(t *testing.T) {
	ones := func(means ...float64) []centroid {
		cs := make([]centroid, len(means))
		for i, m := range means {
			cs[i] = centroid{mean: m, count: 1}
		}
		return cs
	}
	nan, inf := math.NaN(), math.Inf(1)
	if err := new(QuantileSketch).UnmarshalBinary(encodeSketch(32, 4, 1, 4, ones(1, 2, 2, 4))); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if err := new(QuantileSketch).UnmarshalBinary(encodeSketch(32, 0, inf, -inf, nil)); err != nil {
		t.Fatalf("valid empty state rejected: %v", err)
	}
	cases := map[string][]byte{
		"NaN compression":       encodeSketch(nan, 4, 1, 4, ones(1, 2, 3, 4)),
		"+Inf compression":      encodeSketch(inf, 4, 1, 4, ones(1, 2, 3, 4)),
		"1e300 compression":     encodeSketch(1e300, 4, 1, 4, ones(1, 2, 3, 4)),
		"unordered NaN means":   encodeSketch(32, 4, 1, 4, ones(3, 1, 2, nan)),
		"NaN mean":              encodeSketch(32, 3, 1, 4, ones(1, nan, 4)),
		"descending means":      encodeSketch(32, 3, 1, 4, ones(1, 3, 2)),
		"min above max":         encodeSketch(32, 2, 4, 1, ones(1, 4)),
		"NaN min":               encodeSketch(32, 2, nan, 4, ones(1, 4)),
		"empty with finite min": encodeSketch(32, 0, 0, 0, nil),
		"overflowing weights": encodeSketch(32, 0, inf, -inf,
			[]centroid{{1, math.MaxInt64}, {2, math.MaxInt64}, {3, 2}}),
	}
	for name, b := range cases {
		q := new(QuantileSketch)
		if err := q.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: accepted, Quantile(0.5) = %v", name, q.Quantile(0.5))
		}
	}
}

// fuzzAllocBound is the most a decode may allocate for an n-byte input.
func fuzzAllocBound(n int) uint64 { return 64*uint64(n) + 256<<10 }

func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzSketchUnmarshal: decoding never panics and allocates in
// proportion to its input; an accepted state re-encodes to bytes that
// decode to the same state, and merges into a fresh sketch.
func FuzzSketchUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		dec := new(QuantileSketch)
		var err error
		if alloc := allocDelta(func() { err = dec.UnmarshalBinary(in) }); alloc > fuzzAllocBound(len(in)) {
			t.Fatalf("%d-byte input allocated %d bytes", len(in), alloc)
		}
		if err != nil {
			return
		}
		enc, err := dec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back := new(QuantileSketch)
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded state rejected: %v", err)
		}
		if again, _ := back.MarshalBinary(); !bytes.Equal(again, enc) {
			t.Fatal("state moved across a re-encode")
		}
		fresh := NewQuantileSketch(0)
		fresh.Merge(dec)
		fresh.Merge(back)
		if fresh.n != 2*dec.n {
			t.Fatalf("merged n %d, want %d", fresh.n, 2*dec.n)
		}
		fresh.Quantile(0.5)
	})
}
