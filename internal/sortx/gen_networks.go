//go:build ignore

// gen_networks writes networks.go: unrolled sorting networks for every
// n in [2, networkMax]. Each is Batcher's iterative odd-even merge sort
// for the next power of two, with the comparators that touch an index
// >= n dropped (those lanes would hold +Inf padding, so they never
// move). Run it through `go generate ./internal/sortx`.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

const networkMax = 32

// comparators returns the compare-exchange pairs of the network for n.
func comparators(n int) [][2]int {
	size := 1
	for size < n {
		size *= 2
	}
	var out [][2]int
	for p := 1; p < size; p *= 2 {
		for k := p; k >= 1; k /= 2 {
			for j := k % p; j+k < size; j += 2 * k {
				for i := 0; i < k && i+j+k < size; i++ {
					a, b := i+j, i+j+k
					if a/(2*p) == b/(2*p) && b < n {
						out = append(out, [2]int{a, b})
					}
				}
			}
		}
	}
	return out
}

func main() {
	var buf bytes.Buffer
	buf.WriteString(`// Code generated from Batcher's odd-even mergesort construction; verified
// against slices.Sort by TestNetworksMatchSlicesSort. DO NOT EDIT by hand.

package sortx
`)
	for n := 2; n <= networkMax; n++ {
		cs := comparators(n)
		fmt.Fprintf(&buf, "\n// network%d sorts s[:%d] with %d compare-exchange operations.\n", n, n, len(cs))
		fmt.Fprintf(&buf, "func network%d(s []float64) {\n\tp := (*[%d]float64)(s)\n", n, n)
		for _, c := range cs {
			a, b := c[0], c[1]
			fmt.Fprintf(&buf, "\tp[%d], p[%d] = min(p[%d], p[%d]), max(p[%d], p[%d])\n", a, b, a, b, a, b)
		}
		buf.WriteString("}\n")
	}
	fmt.Fprintf(&buf, "\nvar networks = [%d]func([]float64){", networkMax+1)
	for n := 2; n <= networkMax; n++ {
		if (n-2)%5 == 0 {
			buf.WriteString("\n\t")
		} else {
			buf.WriteString(" ")
		}
		fmt.Fprintf(&buf, "%d: network%d,", n, n)
	}
	buf.WriteString("\n}\n")

	src, err := format.Source(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("networks.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
