// Package sortx provides a sorter specialized for the hot-path block
// sorts in this repo: ascending float64 slices whose length is almost
// always the thread count of a simulated rank (48 at paper geometry,
// bounded by a few hundred for any configured geometry).
//
// Strategy (single-socket Xeon, Go 1.24):
//
//   - n <= 32: unrolled Batcher odd-even merge networks (networks.go)
//     with branchless min/max compare-exchanges; bounds checks are
//     eliminated by the (*[N]float64) conversion.
//   - 33 <= n <= 128: network-sorted 32-wide chunks merged bottom-up
//     through a fixed stack buffer (sortMid). At n=48 (the paper's
//     thread count) this is a single branchless merge pass over a
//     network32 and a network16 run.
//   - n > 128: slices.Sort (pdqsort). Block sizes past 128 do not occur
//     in configured geometries.
//
// Every tier was chosen by the END-TO-END study benchmark, not the
// package microbenchmark, because the microbenchmark lies here: its
// loop re-sorts the same input every iteration, so the branch predictor
// memorizes every data-dependent comparison and branchy code looks
// ~2x faster than it runs on fresh data (branchy comparators: 44 ns at
// n16 in the microbenchmark vs a ~20% REGRESSION of the full streaming
// study; same story for insertion sort, whose inner loop is all
// data-dependent branches). Branchless min/max comparators pay a few
// extra instructions (Go's float64 builtins handle NaN/-0) but their
// cost is the same on fresh data as in the loop, and the streaming
// study dropped ~10% when they replaced insertion at n=48.
//
// Contract: elements must not be NaN. Compute-time samples in this repo
// are finite by construction (the workload models draw from bounded
// transforms of finite uniforms); with NaNs present the result order is
// unspecified, exactly as for sort.Float64s before Go 1.23.
package sortx

import "slices"

//go:generate go run gen_networks.go

// networkMax is the largest n with an unrolled network; sortMid chunks
// by this width. gen_networks.go holds the same bound.
const networkMax = 32

// midMax is the largest n routed to the chunked network merge; above it
// pdqsort wins. See the package comment for the measured crossover.
const midMax = 128

// Sort sorts s ascending in place. It is a drop-in replacement for
// sort.Float64s / slices.Sort on NaN-free data, specialized for the
// small block sizes of the per-rank scratch buffers.
func Sort(s []float64) {
	n := len(s)
	switch {
	case n <= 1:
		return
	case n <= networkMax:
		networks[n](s)
	case n <= midMax:
		sortMid(s)
	default:
		slices.Sort(s)
	}
}

// sortMid sorts 33 <= n <= 128 elements: each 32-wide chunk is sorted
// by its network, then the sorted runs are merged bottom-up through a
// stack buffer. The buffer never escapes — mergeRuns does not retain
// its arguments — so the whole sort stays allocation-free.
func sortMid(s []float64) {
	n := len(s)
	for i := 0; i < n; i += networkMax {
		end := i + networkMax
		if end > n {
			end = n
		}
		if c := end - i; c > 1 {
			networks[c](s[i:end])
		}
	}
	var buf [midMax]float64
	src, dst := s, buf[:n]
	for width := networkMax; width < n; width *= 2 {
		for i := 0; i < n; i += 2 * width {
			mid := i + width
			if mid >= n {
				// Lone tail run: already sorted, carry it over.
				copy(dst[i:n], src[i:n])
				break
			}
			end := i + 2*width
			if end > n {
				end = n
			}
			MergeRuns(dst[i:end], src[i:mid], src[mid:end])
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// MergeRuns merges the sorted runs a and b into dst, which must have
// length len(a)+len(b) and not alias either run. The take direction is
// selected without a data-dependent branch (SETcc for the index
// advance, the min builtin for the value): the direction is a coin
// flip on real data, and a mispredict costs more than the select.
// Exported for the quantile sketch, which combines buffered sorted
// ingest runs pairwise before folding them into its centroid list.
func MergeRuns(dst, a, b []float64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		c := 0
		if av <= bv {
			c = 1
		}
		dst[k] = min(av, bv)
		k++
		i += c
		j += 1 - c
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
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
