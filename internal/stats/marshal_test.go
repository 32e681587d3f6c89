package stats

import (
	"math/rand"
	"testing"
)

// TestSketchBinaryRoundTrip: the decoded sketch answers every quantile
// exactly as the original (post-flush) would, and merging with decoded
// shards equals merging with the originals.
func TestSketchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := NewQuantileSketch(64)
	for i := 0; i < 5000; i++ {
		q.Add(rng.NormFloat64())
	}

	data, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := new(QuantileSketch) // zero value: compression comes off the wire
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.n != q.n || back.minSeen != q.minSeen || back.maxSeen != q.maxSeen {
		t.Fatalf("round trip changed counters: n %d/%d min %v/%v max %v/%v",
			back.n, q.n, back.minSeen, q.minSeen, back.maxSeen, q.maxSeen)
	}
	for _, p := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1} {
		if got, want := back.Quantile(p), q.Quantile(p); got != want {
			t.Fatalf("quantile %g: decoded %v vs original %v", p, got, want)
		}
	}

	// Continue adding on both sides: still identical observables.
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64()
		q.Add(x)
		back.Add(x)
	}
	if got, want := back.Quantile(0.5), q.Quantile(0.5); got != want {
		t.Fatalf("post-round-trip median diverged: %v vs %v", got, want)
	}
}

// TestSketchBinaryCorrupt: truncation, bad versions and inconsistent
// centroid mass are rejected, not silently accepted.
func TestSketchBinaryCorrupt(t *testing.T) {
	q := NewQuantileSketch(32)
	q.AddSlice([]float64{1, 2, 3, 4, 5})
	data, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, data[1:]...),
		"truncated":   data[:len(data)-3],
	}
	for name, b := range cases {
		var back QuantileSketch
		if err := back.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestSketchBinaryMergeEquivalence: merging decoded shard sketches gives
// the same observables as merging the originals — the property the
// fleet's coordinator relies on.
func TestSketchBinaryMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func() *QuantileSketch { return NewQuantileSketch(48) }
	shards := make([]*QuantileSketch, 3)
	for i := range shards {
		shards[i] = mk()
		for j := 0; j < 2000; j++ {
			shards[i].Add(rng.NormFloat64() * float64(i+1))
		}
	}

	direct := mk()
	viaWire := mk()
	for _, s := range shards {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var dec QuantileSketch
		if err := dec.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		direct.Merge(s)
		viaWire.Merge(&dec)
	}
	for _, p := range []float64{0.25, 0.5, 0.75} {
		if got, want := viaWire.Quantile(p), direct.Quantile(p); got != want {
			t.Fatalf("quantile %g: via wire %v vs direct %v", p, got, want)
		}
	}
}
