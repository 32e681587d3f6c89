// minife-study reproduces the paper's MiniFE deep-dive (Section 4.2.1):
// the per-iteration percentile series of Figure 4, the two arrival
// classes of Figure 5 (with and without a laggard thread), and the
// laggard statistics behind the "22.4% of iterations" observation.
//
// It also demonstrates the live-kernel path: the same instrumentation
// applied to a real CSR matrix-vector product on this machine.
package main

import (
	"fmt"
	"log"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/miniapps"
	"earlybird/internal/omp"
	"earlybird/internal/simclock"
	"earlybird/internal/workload"
)

func main() {
	// --- Calibrated model study (reproduces the paper's numbers). ---
	cfg := cluster.Config{Trials: 4, Ranks: 8, Iterations: 100, Threads: 48, Seed: 1}
	ds, err := cluster.RunColumnarDLB(workload.DefaultMiniFE(), cfg, dlb.Spec{}, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Figure 4: percentile series and its left-skew signature.
	ps := analysis.IterationPercentiles(ds, nil)
	iqrMean, iqrMax := ps.IQRStats(0, cfg.Iterations)
	fmt.Printf("Figure 4: IQR mean %.2f ms (paper 0.18), max %.2f ms (paper 4.24)\n",
		1e3*iqrMean, 1e3*iqrMax)
	fmt.Printf("early-arrival asymmetry: %.3f ms (positive = 5th/25th further from median)\n\n",
		1e3*ps.SkewAsymmetry())

	// Figure 5: the two arrival classes.
	st := analysis.Laggards(ds, analysis.DefaultLaggardThresholdSec)
	fmt.Printf("laggard iterations: %.1f%% (paper: 22.4%%)\n\n", 100*st.Fraction)
	lag, noLag := analysis.FindExampleIterations(ds, analysis.DefaultLaggardThresholdSec, 0, cfg.Iterations)
	if noLag != nil {
		fmt.Println("Figure 5a — no laggard (50us bins):")
		h := analysis.ProcessIterationHistogram(ds, noLag[0], noLag[1], noLag[2], analysis.Fig5BinWidthSec)
		fmt.Print(h.Render(20, 1e-3, "ms"))
	}
	if lag != nil {
		fmt.Println("\nFigure 5b — with laggard (50us bins):")
		h := analysis.ProcessIterationHistogram(ds, lag[0], lag[1], lag[2], analysis.Fig5BinWidthSec)
		fmt.Print(h.Render(20, 1e-3, "ms"))
	}

	// --- Live instrumented kernel (Listing 1 on a real mat-vec). ---
	fmt.Println("\nlive CSR mat-vec on this host (4 threads, 3 iterations):")
	pool := omp.NewPool(4)
	defer pool.Close()
	app := miniapps.NewMiniFE(48, 48, 48)
	rec := miniapps.Run(app, pool, simclock.NewReal(), 3)
	for iter := 0; iter < rec.Iterations(); iter++ {
		fmt.Printf("  iter %d thread compute times:", iter)
		for th := 0; th < rec.Threads(); th++ {
			fmt.Printf(" %.2fms", 1e3*rec.ComputeTime(iter, th).Seconds())
		}
		fmt.Println()
	}
}
