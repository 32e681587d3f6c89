package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// powMoment is the k-th central moment summed with math.Pow, the
// formula CentralMoments must reproduce bit for bit.
func powMoment(xs []float64, k int) float64 {
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		sum += math.Pow(x-m, float64(k))
	}
	return sum / float64(len(xs))
}

func TestCentralMomentsMatchPowBitwise(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{3, 20, 48, 3840} {
		for _, scale := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3} {
			for rep := 0; rep < 5; rep++ {
				xs := make([]float64, n)
				loc := 26 * scale * r.Float64()
				for i := range xs {
					xs[i] = loc + scale*r.NormFloat64()
					if rep%2 == 1 {
						xs[i] = loc + scale*r.ExpFloat64()
					}
				}
				m2, m3, m4 := CentralMoments(xs)
				for k, got := range map[int]float64{2: m2, 3: m3, 4: m4} {
					if want := powMoment(xs, k); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d scale=%g rep=%d: m%d = %x, Pow formula %x", n, scale, rep, k,
							math.Float64bits(got), math.Float64bits(want))
					}
				}
				g1 := powMoment(xs, 3) / math.Pow(powMoment(xs, 2), 1.5)
				b2 := powMoment(xs, 4) / (powMoment(xs, 2) * powMoment(xs, 2))
				if math.Float64bits(Skewness(xs)) != math.Float64bits(g1) ||
					math.Float64bits(Kurtosis(xs)) != math.Float64bits(b2) {
					t.Fatalf("n=%d scale=%g rep=%d: shape (%v, %v), Pow formula (%v, %v)",
						n, scale, rep, Skewness(xs), Kurtosis(xs), g1, b2)
				}
			}
		}
	}
}

func TestCentralMomentsEmpty(t *testing.T) {
	m2, m3, m4 := CentralMoments(nil)
	if !math.IsNaN(m2) || !math.IsNaN(m3) || !math.IsNaN(m4) {
		t.Errorf("CentralMoments(nil) = %v, %v, %v, want NaN", m2, m3, m4)
	}
}

func TestIQRSelectMatchesIQR(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	samples := map[string]func(n int) []float64{
		"continuous": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 26.3e-3 + 0.18e-3*r.NormFloat64()
			}
			return xs
		},
		"ties": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.IntN(4))
			}
			return xs
		},
		"constant": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 0.0263
			}
			return xs
		},
		"ascending": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		},
		"descending": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
	}
	for name, gen := range samples {
		for n := 1; n <= 300; n++ {
			xs := gen(n)
			want := IQR(xs)
			perm := slices.Clone(xs)
			got := IQRSelect(perm)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: IQRSelect = %v, IQR = %v", name, n, got, want)
			}
			slices.Sort(perm)
			if !slices.Equal(perm, Sorted(xs)) {
				t.Fatalf("%s n=%d: IQRSelect did not permute its input", name, n)
			}
		}
	}
	if got := IQRSelect(nil); !math.IsNaN(got) {
		t.Errorf("IQRSelect(nil) = %v, want NaN", got)
	}
}

func BenchmarkIQR(b *testing.B) {
	xs := benchData(3840)
	buf := make([]float64, len(xs))
	for _, f := range []struct {
		name string
		iqr  func([]float64) float64
	}{{"sort", IQR}, {"select", IQRSelect}} {
		b.Run(fmt.Sprintf("%s/n=%d", f.name, len(xs)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, xs)
				f.iqr(buf)
			}
		})
	}
}
