package sortx

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestNetworksMatchSlicesSort drives every generated network (and the
// chunked-merge + pdqsort tiers) through randomized and adversarial inputs,
// comparing against slices.Sort. This is the correctness proof for the
// generated comparator sequences in networks.go.
func TestNetworksMatchSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 0; n <= 260; n++ {
		trials := 200
		if n > 32 {
			trials = 40
		}
		for trial := 0; trial < trials; trial++ {
			got := make([]float64, n)
			for i := range got {
				switch trial % 4 {
				case 0:
					got[i] = rng.NormFloat64()
				case 1:
					got[i] = float64(rng.IntN(4)) // heavy duplicates
				case 2:
					got[i] = float64(n - i) // reverse sorted
				default:
					got[i] = float64(i) // already sorted
				}
			}
			want := slices.Clone(got)
			slices.Sort(want)
			Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d trial=%d: Sort mismatch\n got %v\nwant %v", n, trial, got, want)
			}
		}
	}
}

func TestSortExtremes(t *testing.T) {
	in := []float64{math.Inf(1), -0, 0, math.Inf(-1), 1e-308, -1e308, 1e308}
	want := slices.Clone(in)
	slices.Sort(want)
	Sort(in)
	if !slices.Equal(in, want) {
		t.Fatalf("extremes: got %v want %v", in, want)
	}
}

// TestSortSubslice pins that Sort only touches s[:len(s)] even when the
// backing array is larger — the hot path hands it reused scratch
// prefixes.
func TestSortSubslice(t *testing.T) {
	backing := []float64{5, 4, 3, 2, 1, 99, 98}
	Sort(backing[:5])
	if !slices.Equal(backing, []float64{1, 2, 3, 4, 5, 99, 98}) {
		t.Fatalf("subslice sort touched the tail: %v", backing)
	}
}

func BenchmarkSort(b *testing.B) {
	for _, n := range []int{8, 16, 48, 128, 512} {
		src := make([]float64, n)
		rng := rand.New(rand.NewPCG(7, uint64(n)))
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		buf := make([]float64, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for b.Loop() {
				copy(buf, src)
				Sort(buf)
			}
		})
	}
}

// TestSortMidAllocFree pins that the chunked-merge tier's stack buffer
// does not escape: the hot accumulators call Sort per block and rely on
// it being allocation-free.
func TestSortMidAllocFree(t *testing.T) {
	buf := make([]float64, 48)
	rng := rand.New(rand.NewPCG(3, 4))
	allocs := testing.AllocsPerRun(100, func() {
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		Sort(buf)
	})
	if allocs != 0 {
		t.Fatalf("Sort(n=48) allocates %v times per call", allocs)
	}
}

// BenchmarkSortInsertion is the reference the network tiers are
// measured against (see the package comment's crossover numbers).
func BenchmarkSortInsertion(b *testing.B) {
	for _, n := range []int{16, 32, 48, 128} {
		src := make([]float64, n)
		rng := rand.New(rand.NewPCG(7, uint64(n)))
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		buf := make([]float64, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for b.Loop() {
				copy(buf, src)
				insertion(buf)
			}
		})
	}
}

func sizeName(n int) string {
	const digits = "0123456789"
	if n == 0 {
		return "n0"
	}
	var out []byte
	for n > 0 {
		out = append([]byte{digits[n%10]}, out...)
		n /= 10
	}
	return "n" + string(out)
}

// insertion is a straight insertion sort, kept as the reference point
// the network strategy is benchmarked against (BenchmarkSortInsertion).
func insertion(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
