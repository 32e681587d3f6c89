package rng

import (
	"math/rand/v2"
	"testing"
)

// TestFastPathMatchesRand pins that the devirtualized shadow methods
// (batch.go) produce bit-identical sequences to the embedded
// (*rand.Rand) methods they shadow, for every draw kind, including the
// ziggurat fallback branches (exercised by sheer draw count).
func TestFastPathMatchesRand(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		fast := New(seed)
		ref := rand.New(rand.NewPCG(seed, mix(seed, 0xda7a)))
		const draws = 200000
		for i := 0; i < draws; i++ {
			switch i % 4 {
			case 0:
				if got, want := fast.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v != rand %v", seed, i, got, want)
				}
			case 1:
				if got, want := fast.NormFloat64(), ref.NormFloat64(); got != want {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != rand %v", seed, i, got, want)
				}
			case 2:
				if got, want := fast.ExpFloat64(), ref.ExpFloat64(); got != want {
					t.Fatalf("seed %d draw %d: ExpFloat64 %v != rand %v", seed, i, got, want)
				}
			default:
				if got, want := fast.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 %#x != rand %#x", seed, i, got, want)
				}
			}
		}
	}
}

// TestFastPathRawGolden pins absolute values so a stdlib algorithm
// change (or a vendoring mistake in ziggurat.go) cannot slide both
// sides of TestFastPathMatchesRand at once.
func TestFastPathRawGolden(t *testing.T) {
	s := New(9)
	wantF := []float64{0.8310065721382254, 0.9348056585043738, 0.08205413549805696}
	for i, want := range wantF {
		if got := s.Float64(); got != want {
			t.Fatalf("Float64 draw %d: got %v want %v", i, got, want)
		}
	}
	wantN := []float64{1.1710198740555033, 1.7250796547026936, -1.4782195856102276}
	for i, want := range wantN {
		if got := s.NormFloat64(); got != want {
			t.Fatalf("NormFloat64 draw %d: got %v want %v", i, got, want)
		}
	}
	wantE := []float64{1.7404683408835582, 0.5147139399564213, 0.5416088288938633}
	for i, want := range wantE {
		if got := s.ExpFloat64(); got != want {
			t.Fatalf("ExpFloat64 draw %d: got %v want %v", i, got, want)
		}
	}
	if got := s.Uint64(); got != 0x99ae715c040c9fcf {
		t.Fatalf("Uint64 draw 0: got %#x", got)
	}
	if got := s.Uint64(); got != 0x7b270985ee64c67c {
		t.Fatalf("Uint64 draw 1: got %#x", got)
	}
}

// TestBatchEqualsScalar is the batch-RNG property test: every fused
// fill must equal the scalar loop it replaces,
// element-wise and bit-exact, consuming the stream identically (checked
// by comparing a post-batch draw too).
func TestBatchEqualsScalar(t *testing.T) {
	const n = 257 // odd, > any unroll width
	type variant struct {
		name   string
		batch  func(s *Source, out []float64)
		scalar func(s *Source, out []float64)
	}
	variants := []variant{
		{
			"FillNormal",
			func(s *Source, out []float64) { s.FillNormal(out, 26.3e-3, 0.1e-3) },
			func(s *Source, out []float64) {
				for i := range out {
					out[i] = s.Normal(26.3e-3, 0.1e-3)
				}
			},
		},
		{
			"FillUniform",
			func(s *Source, out []float64) { s.FillUniform(out, -0.5, 2.25) },
			func(s *Source, out []float64) {
				for i := range out {
					out[i] = s.Uniform(-0.5, 2.25)
				}
			},
		},
		{
			"AddUniform",
			func(s *Source, out []float64) { s.AddUniform(out, 25.5e-3, -0.9e-3, 0.9e-3) },
			func(s *Source, out []float64) {
				for i := range out {
					out[i] = 25.5e-3 + s.Uniform(-0.9e-3, 0.9e-3)
				}
			},
		},
		{
			"FillNormalMinusExp",
			func(s *Source, out []float64) { s.FillNormalMinusExp(out, 26.3e-3, 0.15e-3, 0, 0.015e-3) },
			func(s *Source, out []float64) {
				for i := range out {
					out[i] = 26.3e-3 - s.Exp(0.15e-3) + s.Normal(0, 0.015e-3)
				}
			},
		},
		{
			"FillNormalStragglers",
			func(s *Source, out []float64) { s.FillNormalStragglers(out, 24.74e-3, 0, 0.1e-3, 0.35, 0.35e-3) },
			func(s *Source, out []float64) {
				for i := range out {
					out[i] = 24.74e-3 + s.Normal(0, 0.1e-3)
					if s.Bernoulli(0.35) {
						out[i] += s.Exp(0.35e-3)
					}
				}
			},
		},
		{
			"FillNormalStragglersZeroProb",
			func(s *Source, out []float64) { s.FillNormalStragglers(out, 24.74e-3, 0, 0.1e-3, 0, 0.35e-3) },
			func(s *Source, out []float64) {
				for i := range out {
					out[i] = 24.74e-3 + s.Normal(0, 0.1e-3)
				}
			},
		},
		{
			"FillNormalExpTail",
			func(s *Source, out []float64) { s.FillNormalExpTail(out, 60.0e-3, 0, 6.05e-3, 1.8e-3) },
			func(s *Source, out []float64) {
				for i := range out {
					out[i] = 60.0e-3 + s.Normal(0, 6.05e-3) + s.Exp(1.8e-3) - 1.8e-3
				}
			},
		},
	}
	for _, v := range variants {
		for seed := uint64(1); seed <= 20; seed++ {
			sb, ss := New(seed), New(seed)
			got, want := make([]float64, n), make([]float64, n)
			v.batch(sb, got)
			v.scalar(ss, want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d elem %d: batch %v != scalar %v", v.name, seed, i, got[i], want[i])
				}
			}
			// The stream positions must agree afterwards too.
			if g, w := sb.Uint64(), ss.Uint64(); g != w {
				t.Fatalf("%s seed %d: stream diverged after batch (%#x != %#x)", v.name, seed, g, w)
			}
		}
	}
}

func BenchmarkScalarNormal(b *testing.B) {
	s := New(1)
	var sink float64
	for b.Loop() {
		sink += s.Normal(0, 1)
	}
	_ = sink
}

func BenchmarkFillNormal(b *testing.B) {
	s := New(1)
	out := make([]float64, 48)
	b.ResetTimer()
	for b.Loop() {
		s.FillNormal(out, 0, 1)
	}
}
