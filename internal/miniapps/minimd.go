package miniapps

import (
	"earlybird/internal/omp"
	"earlybird/internal/rng"
	"earlybird/internal/simclock"
	"earlybird/internal/trace"
)

// MiniMDApp is the molecular-dynamics proxy: atoms on a jittered cubic
// lattice with cell-list neighbour search, with the timed region being
// the Lennard-Jones force computation — "the most computationally
// intensive section" per Section 3.2 (the paper used a 128^3 compute
// volume).
type MiniMDApp struct {
	cells     int     // cells per dimension
	cellSize  float64 // box is cells*cellSize wide
	cutoff2   float64
	pos       [][3]float64
	force     [][3]float64
	cellStart []int32 // CSR-style cell index
	cellAtoms []int32
}

// NewMiniMD places atomsPerCell atoms in each of cells^3 cells with
// deterministic jitter from seed.
func NewMiniMD(cells, atomsPerCell int, seed uint64) *MiniMDApp {
	if cells < 1 || atomsPerCell < 1 {
		panic("miniapps: cells and atomsPerCell must be positive")
	}
	const cellSize = 1.0
	a := &MiniMDApp{
		cells:    cells,
		cellSize: cellSize,
		cutoff2:  cellSize * cellSize, // interact within one cell width
	}
	s := rng.New(seed)
	n := cells * cells * cells * atomsPerCell
	a.pos = make([][3]float64, 0, n)
	for k := 0; k < cells; k++ {
		for j := 0; j < cells; j++ {
			for i := 0; i < cells; i++ {
				for m := 0; m < atomsPerCell; m++ {
					a.pos = append(a.pos, [3]float64{
						(float64(i) + 0.15 + 0.7*s.Float64()) * cellSize,
						(float64(j) + 0.15 + 0.7*s.Float64()) * cellSize,
						(float64(k) + 0.15 + 0.7*s.Float64()) * cellSize,
					})
				}
			}
		}
	}
	a.force = make([][3]float64, len(a.pos))
	a.buildCells()
	return a
}

// buildCells bins atoms into cells (counting sort).
func (a *MiniMDApp) buildCells() {
	nc := a.cells * a.cells * a.cells
	counts := make([]int32, nc+1)
	cellOf := make([]int32, len(a.pos))
	for i, p := range a.pos {
		c := a.cellIndex(p)
		cellOf[i] = c
		counts[c+1]++
	}
	for c := 1; c <= nc; c++ {
		counts[c] += counts[c-1]
	}
	a.cellStart = counts
	a.cellAtoms = make([]int32, len(a.pos))
	cursor := make([]int32, nc)
	for i := range a.pos {
		c := cellOf[i]
		a.cellAtoms[a.cellStart[c]+cursor[c]] = int32(i)
		cursor[c]++
	}
}

func (a *MiniMDApp) cellIndex(p [3]float64) int32 {
	clampf := func(x float64) int {
		c := int(x / a.cellSize)
		if c < 0 {
			c = 0
		}
		if c >= a.cells {
			c = a.cells - 1
		}
		return c
	}
	return int32((clampf(p[2])*a.cells+clampf(p[1]))*a.cells + clampf(p[0]))
}

// Name implements App.
func (a *MiniMDApp) Name() string { return "minimd" }

// ljForce accumulates the Lennard-Jones force on atom i from atom j
// (one-sided; the loop visits both orderings as LAMMPS' half-neighbour
// optimisation is not the point here).
func (a *MiniMDApp) ljForce(i, j int32) (fx, fy, fz float64) {
	dx := a.pos[i][0] - a.pos[j][0]
	dy := a.pos[i][1] - a.pos[j][1]
	dz := a.pos[i][2] - a.pos[j][2]
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= a.cutoff2 || r2 == 0 {
		return 0, 0, 0
	}
	// Standard LJ with sigma=0.3, epsilon=1: F = 24 eps (2 (s/r)^12 - (s/r)^6) / r^2 * dr.
	const sigma2 = 0.09
	sr2 := sigma2 / r2
	sr6 := sr2 * sr2 * sr2
	f := 24 * (2*sr6*sr6 - sr6) / r2
	return f * dx, f * dy, f * dz
}

// computeForcesRange computes forces for the atoms of one cell.
func (a *MiniMDApp) computeForcesCell(c int) {
	cz := c / (a.cells * a.cells)
	cy := (c / a.cells) % a.cells
	cx := c % a.cells
	for s := a.cellStart[c]; s < a.cellStart[c+1]; s++ {
		i := a.cellAtoms[s]
		var fx, fy, fz float64
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny, nz := cx+dx, cy+dy, cz+dz
					if nx < 0 || nx >= a.cells || ny < 0 || ny >= a.cells || nz < 0 || nz >= a.cells {
						continue
					}
					nc := (nz*a.cells+ny)*a.cells + nx
					for t := a.cellStart[nc]; t < a.cellStart[nc+1]; t++ {
						j := a.cellAtoms[t]
						if j == i {
							continue
						}
						gx, gy, gz := a.ljForce(i, j)
						fx += gx
						fy += gy
						fz += gz
					}
				}
			}
		}
		a.force[i] = [3]float64{fx, fy, fz}
	}
}

// RunIteration implements App: one instrumented Lennard-Jones force
// sweep, work-shared over cells.
func (a *MiniMDApp) RunIteration(pool *omp.Pool, clock simclock.Clock, rec *trace.Recorder, iter int) {
	nc := a.cells * a.cells * a.cells
	instrumented(pool, clock, rec, iter, func(tc *omp.ThreadContext) {
		tc.For(nc, omp.Static, 0, func(c int) {
			a.computeForcesCell(c)
		})
	})
}

// ComputeForcesSerial runs the force sweep serially (reference for
// parallel-equivalence tests).
func (a *MiniMDApp) ComputeForcesSerial() {
	nc := a.cells * a.cells * a.cells
	for c := 0; c < nc; c++ {
		a.computeForcesCell(c)
	}
}
