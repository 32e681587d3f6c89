// earlybird-overlap demonstrates both layers of the partitioned
// communication substrate:
//
//  1. an executable early-bird transfer: compute threads of a sender rank
//     mark their partition ready the moment they finish, while the
//     receiver polls Parrived and observes partitions landing before the
//     final thread completes (Figure 1 of the paper); and
//  2. the analytical overlap comparison of delivery strategies over the
//     three applications' measured arrival distributions (Section 5).
package main

import (
	"fmt"
	"log"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/mpi"
	"earlybird/internal/network"
	"earlybird/internal/omp"
	"earlybird/internal/partcomm"
	"earlybird/internal/workload"
)

func main() {
	executableDemo()
	analyticalComparison()
}

// executableDemo runs a real partitioned transfer between two in-process
// ranks: 8 compute threads with staggered work, each calling Pready as it
// finishes.
func executableDemo() {
	const (
		threads  = 8
		partSize = 4096
	)
	world := mpi.NewWorld(2)
	err := world.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			buf := make([]byte, threads*partSize)
			for i := range buf {
				buf[i] = byte(i)
			}
			ps, err := partcomm.NewSend(c, 1, 1, buf, threads)
			if err != nil {
				return err
			}
			pool := omp.NewPool(threads)
			defer pool.Close()
			pool.Parallel(func(tc *omp.ThreadContext) {
				t := tc.ThreadNum()
				// Staggered compute: thread t works ~ (t+1) x 2 ms,
				// so partitions become ready early-bird style.
				time.Sleep(time.Duration(t+1) * 2 * time.Millisecond)
				if err := ps.Pready(t); err != nil {
					panic(err)
				}
			})
			return nil
		}
		pr, err := partcomm.NewRecv(c, 0, 1, threads*partSize, threads)
		if err != nil {
			return err
		}
		// Poll: count how many partitions have landed before the last
		// thread (16 ms) could possibly be done.
		time.Sleep(9 * time.Millisecond)
		early := pr.ArrivedCount()
		for i := 0; i < threads; i++ {
			if _, err := pr.Parrived(i); err != nil {
				return err
			}
		}
		early = pr.ArrivedCount()
		pr.Wait()
		fmt.Printf("executable early-bird: %d/%d partitions had landed while the last threads were still computing\n",
			early, threads)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

// analyticalComparison evaluates bulk vs fine-grained vs binned delivery
// over the calibrated arrival data of the three applications.
func analyticalComparison() {
	cfg := cluster.Config{Trials: 2, Ranks: 4, Iterations: 60, Threads: 48, Seed: 1}
	fabric := network.OmniPath()
	strategies := []partcomm.Strategy{
		partcomm.Bulk{},
		partcomm.FineGrained{},
		partcomm.Binned{TimeoutSec: 1e-3},
	}
	for _, m := range []workload.Model{
		workload.DefaultMiniFE(),
		workload.DefaultMiniMD(),
		workload.DefaultMiniQMC(),
	} {
		ds, err := cluster.RunColumnarDLB(m, cfg, dlb.Spec{}, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (1 MiB per thread portion, Omni-Path model):\n", ds.App)
		for _, r := range partcomm.Evaluate(ds, 1<<20, fabric, strategies) {
			fmt.Printf("  %s\n", r)
		}
	}
}
