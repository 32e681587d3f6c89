package normality

import (
	"math"
	"testing"

	"earlybird/internal/rng"
)

// sameFloat reports whether a and b have the same IEEE-754 bits, with
// every NaN equal to every other.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkErfcPair(t *testing.T, x float64) bool {
	t.Helper()
	got, gotNeg := erfcPair(x)
	want, wantNeg := math.Erfc(x), math.Erfc(-x)
	if !sameFloat(got, want) || !sameFloat(gotNeg, wantNeg) {
		t.Errorf("erfcPair(%v) = (%v, %v), want (%v, %v)", x, got, gotNeg, want, wantNeg)
		return false
	}
	return true
}

// TestErfcPairMatchesErfc pins erfcPair bitwise to math.Erfc on both
// signs: special values, every region boundary of the erfc
// approximation and its floating-point neighbours, and a few million
// random arguments spread across all regions.
func TestErfcPairMatchesErfc(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 1e-300, 0x1p-60, 0x1p-56, 1e-10, math.MaxFloat64}
	for _, x := range special {
		checkErfcPair(t, x)
		checkErfcPair(t, -x)
	}
	for _, b := range []float64{0x1p-56, 0.25, 0.84375, 1.25, 1 / 0.35, 6, 28} {
		for _, x := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			checkErfcPair(t, x)
			checkErfcPair(t, -x)
		}
	}

	n := 3_000_000
	if testing.Short() {
		n = 300_000
	}
	src := rng.New(20261017)
	bad := 0
	for i := 0; i < n && bad < 10; i++ {
		var x float64
		switch i % 3 {
		case 0: // uniform over the polynomial and Exp regions
			x = 60*src.Float64() - 30
		case 1: // dense near the origin, where most z/√2 fall
			x = 6*src.Float64() - 3
		default: // log-uniform magnitudes from 2^-64 to 2^8
			x = math.Ldexp(1+src.Float64(), int(src.Float64()*72)-64)
			if src.Float64() < 0.5 {
				x = -x
			}
		}
		if !checkErfcPair(t, x) {
			bad++
		}
	}
}
