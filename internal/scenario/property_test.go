package scenario

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"earlybird/internal/cliopts"
	"earlybird/internal/dlb"
	"earlybird/internal/trace"
)

// propTraceCSV is a small valid trace shared by the random specs.
var propTraceCSV = func() string {
	d := trace.NewDataset("prop-trace", 1, 2, 3, 2)
	for trial := 0; trial < d.Trials; trial++ {
		for rank := 0; rank < d.Ranks; rank++ {
			for iter := 0; iter < d.Iterations; iter++ {
				for th := 0; th < d.Threads; th++ {
					d.Block(trial, rank, iter)[th] = 0.001 * float64(1+rank+iter+th)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}()

// randomSpec draws a scenario from pools of valid axis entries. Axis
// subsets are drawn without replacement so the spec always validates;
// empty axes exercise the compiler's defaulting.
func randomSpec(t *testing.T, r *rand.Rand) *Spec {
	t.Helper()
	pick := func(pool []string, max int) []string {
		n := r.Intn(max + 1)
		idx := r.Perm(len(pool))
		out := make([]string, 0, n)
		for _, i := range idx[:min(n, len(pool))] {
			out = append(out, pool[i])
		}
		return out
	}
	s := &Spec{Name: fmt.Sprintf("prop-%d", r.Int())}

	apps := []string{"minife", "minimd", "miniqmc"}
	for _, i := range r.Perm(len(apps))[:1+r.Intn(len(apps))] {
		s.Sources = append(s.Sources, Source{App: apps[i]})
	}
	if r.Intn(2) == 0 {
		s.Sources = append(s.Sources, Source{CSV: propTraceCSV})
	}

	for _, g := range pick([]string{"quick", "2x4x10x8", "paper@7", "1x2x5x4"}, 3) {
		cfg, err := cliopts.ParseGeometry(g)
		if err != nil {
			t.Fatal(err)
		}
		s.Geometries = append(s.Geometries, cfg)
	}
	for _, n := range pick([]string{
		"none",
		"burst:rate=2,mean-ms=5,factor=3",
		"interrupt:rate=100,cost-us=50",
		"slowdown:prob=0.25,factor=2",
	}, 3) {
		ns, err := ParseNoise(n)
		if err != nil {
			t.Fatal(err)
		}
		s.Noise = append(s.Noise, ns)
	}
	for _, f := range pick([]string{
		"omnipath",
		"flat:latency-us=1,gbs=10",
		"hier:ranks-per-node=4,congestion=2",
		"hier:ranks-per-node=2",
	}, 3) {
		fs, err := ParseFabric(f)
		if err != nil {
			t.Fatal(err)
		}
		s.Fabrics = append(s.Fabrics, fs)
	}
	for _, d := range pick([]string{"static", "lewi", "drom"}, 2) {
		ds, err := dlb.Parse(d)
		if err != nil {
			t.Fatal(err)
		}
		s.DLB = append(s.DLB, ds)
	}
	for _, ms := range pick([]string{"1", "5", "0.5"}, 2) {
		var v float64
		fmt.Sscanf(ms, "%g", &v)
		s.BinTimeoutsSec = append(s.BinTimeoutsSec, v*1e-3)
	}
	return s
}

// expectedCells recomputes the cross-product size by the contract,
// independent of both the compiler and the verifier.
func expectedCells(s *Spec) int {
	or1 := func(n int) int {
		if n == 0 {
			return 1
		}
		return n
	}
	apps, traces := 0, 0
	for _, src := range s.Sources {
		if src.IsApp() {
			apps++
		} else {
			traces++
		}
	}
	ft := or1(len(s.Fabrics)) * or1(len(s.BinTimeoutsSec))
	return apps*or1(len(s.Geometries))*or1(len(s.Noise))*or1(len(s.DLB))*ft + traces*ft
}

// TestVerifyProperty: every random spec compiles into a campaign the
// verifier accepts, with exactly the contract's cell count.
func TestVerifyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 200; trial++ {
		s := randomSpec(t, r)
		c, err := s.Compile(CompileOptions{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\nspec %+v", trial, err, s)
		}
		want := expectedCells(s)
		if len(c.Cells) != want {
			t.Fatalf("trial %d: %d cells, contract says %d", trial, len(c.Cells), want)
		}
		cov, err := c.Verify()
		if err != nil {
			t.Fatalf("trial %d: verify: %v", trial, err)
		}
		if cov.Cells != want {
			t.Fatalf("trial %d: coverage %d != %d", trial, cov.Cells, want)
		}
	}
}

// reindex restores the Index invariant after a structural mutation so
// Verify fails on coverage, not on bookkeeping.
func reindex(cells []Cell) []Cell {
	for i := range cells {
		cells[i].Index = i
	}
	return cells
}

// TestVerifyCatchesMutations: the verifier is not a rubber stamp — a
// campaign with a hole, a duplicate, or a cell whose engine spec drifted
// from its declared coordinates must fail.
func TestVerifyCatchesMutations(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	caught := map[string]int{}
	for trial := 0; trial < 100; trial++ {
		s := randomSpec(t, r)
		c, err := s.Compile(CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Cells) == 0 {
			continue
		}
		i := r.Intn(len(c.Cells))
		mutants := map[string][]Cell{
			"hole":      reindex(append(append([]Cell{}, c.Cells[:i]...), c.Cells[i+1:]...)),
			"duplicate": reindex(append(append([]Cell{}, c.Cells...), c.Cells[i])),
		}
		// Drift: the spec no longer matches the declared coordinate.
		drift := append([]Cell{}, c.Cells...)
		drift[i].Spec.BinTimeoutSec += 1e-4
		mutants["drift"] = drift
		// Undeclared: a coordinate outside the cross-product.
		undeclared := append([]Cell{}, c.Cells...)
		undeclared[i].BinTimeoutSec = 0.123
		undeclared[i].Spec.BinTimeoutSec = 0.123
		mutants["undeclared"] = undeclared

		for name, cells := range mutants {
			m := &Compiled{Spec: s, Cells: cells}
			if _, err := m.Verify(); err == nil {
				t.Fatalf("trial %d: %s mutation passed verification", trial, name)
			}
			caught[name]++
		}
	}
	for _, name := range []string{"hole", "duplicate", "drift", "undeclared"} {
		if caught[name] == 0 {
			t.Errorf("mutation %s never exercised", name)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
