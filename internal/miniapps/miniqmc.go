package miniapps

import (
	"math"

	"earlybird/internal/omp"
	"earlybird/internal/rng"
	"earlybird/internal/simclock"
	"earlybird/internal/trace"
)

// MiniQMCApp is the quantum Monte Carlo proxy: one "mover" per thread
// performs a Metropolis random walk of an electron configuration against
// a Gaussian-orbital trial wavefunction. The timed region is "the
// entirety of the computation for the individual threaded movers"
// (Section 3.2). Walk lengths are drawn per mover, giving the naturally
// wide arrival spread the paper observes for this class of application.
type MiniQMCApp struct {
	electrons int
	steps     int
	seed      uint64
	// acceptance counts per mover (observable for tests).
	accepted []int64
}

// NewMiniQMC configures movers with the given electron count and mean
// steps per iteration.
func NewMiniQMC(electrons, steps int, seed uint64) *MiniQMCApp {
	if electrons < 1 || steps < 1 {
		panic("miniapps: electrons and steps must be positive")
	}
	return &MiniQMCApp{electrons: electrons, steps: steps, seed: seed}
}

// Name implements App.
func (a *MiniQMCApp) Name() string { return "miniqmc" }

// psi evaluates a toy trial wavefunction: a product of Gaussian orbitals
// centred at lattice sites, plus a pair Jastrow factor.
func psi(conf [][3]float64) float64 {
	logPsi := 0.0
	for i, p := range conf {
		cx := float64(i % 3)
		cy := float64((i / 3) % 3)
		cz := float64(i / 9)
		dx, dy, dz := p[0]-cx, p[1]-cy, p[2]-cz
		logPsi -= 0.5 * (dx*dx + dy*dy + dz*dz)
	}
	for i := 0; i < len(conf); i++ {
		for j := i + 1; j < len(conf); j++ {
			dx := conf[i][0] - conf[j][0]
			dy := conf[i][1] - conf[j][1]
			dz := conf[i][2] - conf[j][2]
			r := math.Sqrt(dx*dx+dy*dy+dz*dz) + 1e-9
			logPsi += 0.5 * r / (1 + r) // simple Jastrow
		}
	}
	return logPsi
}

// runMover advances one mover's walk and returns the acceptance count.
func (a *MiniQMCApp) runMover(mover, iter, steps int) int64 {
	s := rng.New(a.seed).Child(uint64(mover), uint64(iter))
	conf := make([][3]float64, a.electrons)
	for i := range conf {
		conf[i] = [3]float64{s.Normal(float64(i%3), 0.3), s.Normal(float64((i/3)%3), 0.3), s.Normal(float64(i/9), 0.3)}
	}
	logPsi := psi(conf)
	var accepted int64
	for step := 0; step < steps; step++ {
		e := s.IntN(a.electrons)
		old := conf[e]
		conf[e][0] += s.Normal(0, 0.2)
		conf[e][1] += s.Normal(0, 0.2)
		conf[e][2] += s.Normal(0, 0.2)
		newLogPsi := psi(conf)
		// Metropolis on |psi|^2.
		if math.Log(s.Float64()+1e-300) < 2*(newLogPsi-logPsi) {
			logPsi = newLogPsi
			accepted++
		} else {
			conf[e] = old
		}
	}
	return accepted
}

// RunIteration implements App: each thread runs its own mover; walk
// lengths vary per mover and iteration (QMC branching), which is what
// spreads arrivals.
func (a *MiniQMCApp) RunIteration(pool *omp.Pool, clock simclock.Clock, rec *trace.Recorder, iter int) {
	n := pool.NumThreads()
	if a.accepted == nil {
		a.accepted = make([]int64, n)
	}
	instrumented(pool, clock, rec, iter, func(tc *omp.ThreadContext) {
		mover := tc.ThreadNum()
		// Per-mover step count: mean a.steps, spread +/-50%.
		s := rng.New(a.seed).Child(0xabcd, uint64(mover), uint64(iter))
		steps := int(float64(a.steps) * s.Uniform(0.5, 1.5))
		if steps < 1 {
			steps = 1
		}
		a.accepted[mover] += a.runMover(mover, iter, steps)
	})
}
