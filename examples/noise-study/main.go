// noise-study demonstrates the OS-noise attribution question behind the
// paper's laggard analysis (Section 2 cites OS noise as a laggard
// source): inject controlled interference into a clean workload and
// watch what the analysis pipeline reports.
//
// Three scenarios run over the same clean base workload:
//
//   - no noise: a tight normal arrival distribution;
//   - a periodic daemon: everyone pays; the distribution shifts but no
//     laggards appear;
//   - a rare core slowdown: classic laggards at close to the predicted
//     rate, which is what early-bird communication can exploit.
package main

import (
	"fmt"
	"log"
	"time"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/noise"
	"earlybird/internal/workload"
)

func main() {
	base := &workload.NormalModel{AppName: "clean", MedianSec: 20e-3, SigmaSec: 0.05e-3}
	cfg := cluster.Config{Trials: 2, Ranks: 4, Iterations: 80, Threads: 48, Seed: 7}

	scenarios := []struct {
		name  string
		model workload.Model
	}{
		{"clean", base},
		{"daemon (100us period, 5us cost)", &workload.Noisy{
			Base:   base,
			Noise:  noise.PeriodicDaemon{Period: 100 * time.Microsecond, Cost: 5 * time.Microsecond, Affinity: 1},
			Suffix: "+daemon",
		}},
		{"core slowdown (p=1%, 1.2x)", &workload.Noisy{
			Base:   base,
			Noise:  noise.CoreSlowdown{Prob: 0.01, Factor: 1.2},
			Suffix: "+slowdown",
		}},
		{"interrupts (2kHz, 30us)", &workload.Noisy{
			Base:   base,
			Noise:  noise.RandomInterrupt{Rate: 2000, MeanCost: 30 * time.Microsecond},
			Suffix: "+irq",
		}},
	}

	for _, sc := range scenarios {
		ds, err := cluster.RunColumnarDLB(sc.model, cfg, dlb.Spec{}, 0)
		if err != nil {
			log.Fatal(err)
		}
		m := analysis.ComputeMetrics(ds, analysis.DefaultLaggardThresholdSec)
		lb := analysis.DatasetLoadBalance(ds)
		tl := analysis.NewLaggardTimeline(ds, analysis.DefaultLaggardThresholdSec)
		fmt.Printf("%-34s median %6.2f ms  laggards %5.1f%%  load balance %.4f  laggard-active iterations %d/%d\n",
			sc.name, 1e3*m.MeanMedianSec, 100*m.LaggardFraction, lb.Mean,
			tl.ActiveIterations(), cfg.Iterations)
	}

	fmt.Println("\nOnly asymmetric interference (the slowdown) creates laggards — the")
	fmt.Println("signature early-bird communication exploits; uniform noise (daemon,")
	fmt.Println("interrupts) shifts the whole distribution instead.")
}
