package miniapps

import (
	"math"
	"testing"

	"earlybird/internal/omp"
	"earlybird/internal/simclock"
)

func TestMiniFEMatVecCorrectness(t *testing.T) {
	// Interior rows of the stencil: 26 - 26 neighbours each contributing
	// -x. With x = all ones, y = 26 - (#neighbours). Verify against a
	// brute-force dense product on a small mesh.
	a := NewMiniFE(4, 3, 2)
	for i := range a.x {
		a.x[i] = 1
	}
	y := a.MatVec()
	n := len(a.x)
	if n != 24 {
		t.Fatalf("rows = %d", n)
	}
	// Dense reference.
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for row := 0; row < n; row++ {
		for p := a.rowPtr[row]; p < a.rowPtr[row+1]; p++ {
			dense[row][a.colIdx[p]] += a.vals[p]
		}
	}
	for row := 0; row < n; row++ {
		want := 0.0
		for col := 0; col < n; col++ {
			want += dense[row][col]
		}
		if math.Abs(y[row]-want) > 1e-12 {
			t.Fatalf("row %d: y = %v, want %v", row, y[row], want)
		}
	}
}

func TestMiniFEDiagonalDominance(t *testing.T) {
	a := NewMiniFE(3, 3, 3)
	for row := 0; row < len(a.x); row++ {
		var diag, off float64
		for p := a.rowPtr[row]; p < a.rowPtr[row+1]; p++ {
			if int(a.colIdx[p]) == row {
				diag += a.vals[p]
			} else {
				off += math.Abs(a.vals[p])
			}
		}
		if diag <= 0 || diag < off-26 {
			t.Fatalf("row %d: diag %v off %v", row, diag, off)
		}
	}
}

func TestMiniFEParallelMatchesSerial(t *testing.T) {
	serial := NewMiniFE(6, 6, 6)
	want := serial.MatVec()

	par := NewMiniFE(6, 6, 6)
	pool := omp.NewPool(4)
	defer pool.Close()
	clock := simclock.NewReal()
	rec := Run(par, pool, clock, 1)
	if rec.Iterations() != 1 {
		t.Fatal("recorder geometry")
	}
	for i := range want {
		if math.Abs(par.y[i]-want[i]) > 1e-12 {
			t.Fatalf("row %d: parallel %v, serial %v", i, par.y[i], want[i])
		}
	}
}

func TestMiniFERecordsPlausibleTimes(t *testing.T) {
	a := NewMiniFE(8, 8, 8)
	pool := omp.NewPool(3)
	defer pool.Close()
	rec := Run(a, pool, simclock.NewReal(), 2)
	for iter := 0; iter < 2; iter++ {
		for th := 0; th < 3; th++ {
			ct := rec.ComputeTime(iter, th)
			if ct <= 0 {
				t.Errorf("iter %d thread %d: compute time %v", iter, th, ct)
			}
		}
	}
}

func TestMiniMDNewtonsThirdLaw(t *testing.T) {
	a := NewMiniMD(4, 3, 11)
	a.ComputeForcesSerial()
	var total [3]float64
	maxNorm := 0.0
	for _, f := range a.force {
		for d := range total {
			total[d] += f[d]
		}
		maxNorm = math.Max(maxNorm, math.Sqrt(f[0]*f[0]+f[1]*f[1]+f[2]*f[2]))
	}
	// The summed pair forces cancel (up to FP error scaled by magnitude).
	scale := maxNorm * float64(len(a.pos))
	if scale == 0 {
		t.Fatal("no forces computed")
	}
	for dim, f := range total {
		if math.Abs(f) > 1e-9*scale {
			t.Errorf("net force dim %d = %v (scale %v): momentum not conserved", dim, f, scale)
		}
	}
}

func TestMiniMDParallelMatchesSerial(t *testing.T) {
	ref := NewMiniMD(4, 2, 5)
	ref.ComputeForcesSerial()
	want := ref.force

	par := NewMiniMD(4, 2, 5)
	pool := omp.NewPool(5)
	defer pool.Close()
	Run(par, pool, simclock.NewReal(), 1)
	got := par.force
	for i := range want {
		for d := 0; d < 3; d++ {
			if math.Abs(got[i][d]-want[i][d]) > 1e-12 {
				t.Fatalf("atom %d dim %d: %v vs %v", i, d, got[i][d], want[i][d])
			}
		}
	}
}

func TestMiniMDDeterministicSetup(t *testing.T) {
	a := NewMiniMD(3, 2, 7)
	b := NewMiniMD(3, 2, 7)
	for i := range a.pos {
		if a.pos[i] != b.pos[i] {
			t.Fatal("same seed produced different configurations")
		}
	}
	c := NewMiniMD(3, 2, 8)
	if a.pos[0] == c.pos[0] {
		t.Fatal("different seeds produced identical configurations")
	}
}

func TestMiniMDCellBinningCoversAllAtoms(t *testing.T) {
	a := NewMiniMD(5, 4, 3)
	seen := make(map[int32]bool)
	nc := a.cells * a.cells * a.cells
	for c := 0; c < nc; c++ {
		for s := a.cellStart[c]; s < a.cellStart[c+1]; s++ {
			i := a.cellAtoms[s]
			if seen[i] {
				t.Fatalf("atom %d binned twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(a.pos) {
		t.Fatalf("binned %d atoms, want %d", len(seen), len(a.pos))
	}
}

func TestMiniQMCAcceptanceReasonable(t *testing.T) {
	a := NewMiniQMC(8, 200, 3)
	pool := omp.NewPool(4)
	defer pool.Close()
	Run(a, pool, simclock.NewReal(), 3)
	acc := a.accepted
	if len(acc) != 4 {
		t.Fatalf("acceptance counters = %d movers", len(acc))
	}
	totalSteps := 0.0
	totalAcc := 0.0
	for _, c := range acc {
		totalAcc += float64(c)
	}
	totalSteps = 4 * 3 * 200 // upper bound; per-mover steps vary ±50%
	rate := totalAcc / totalSteps
	if rate <= 0.05 || rate >= 1.0 {
		t.Errorf("acceptance rate %v implausible for Metropolis walk", rate)
	}
}

func TestMiniQMCMoverDeterminism(t *testing.T) {
	a := NewMiniQMC(6, 100, 9)
	x := a.runMover(2, 5, 100)
	y := a.runMover(2, 5, 100)
	if x != y {
		t.Fatal("same mover coordinates gave different acceptance counts")
	}
	z := a.runMover(3, 5, 100)
	w := a.runMover(2, 6, 100)
	if x == z && x == w {
		t.Fatal("distinct movers/iterations suspiciously identical")
	}
}

func TestRunStudyAssemblesDataset(t *testing.T) {
	pool := omp.NewPool(2)
	defer pool.Close()
	d := RunStudy(func(trial, rank int) App {
		return NewMiniQMC(4, 20, uint64(trial*10+rank))
	}, pool, simclock.NewReal(), 2, 2, 3)
	if d.App != "miniqmc" || d.Trials != 2 || d.Ranks != 2 || d.Iterations != 3 || d.Threads != 2 {
		t.Fatalf("dataset geometry %+v", d)
	}
	for _, x := range d.AllSamples() {
		if x <= 0 {
			t.Fatal("non-positive live sample")
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMiniFE(0, 1, 1) },
		func() { NewMiniMD(0, 1, 1) },
		func() { NewMiniQMC(0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid constructor args")
				}
			}()
			fn()
		}()
	}
}
