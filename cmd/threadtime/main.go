// Command threadtime collects a thread-timing study — the data-gathering
// half of the paper's methodology (Section 3).
//
// By default it runs the calibrated stochastic model of an application at
// the paper's geometry and writes the dataset as JSON or CSV. With -live
// it instead executes the real instrumented compute kernels
// (internal/miniapps) on this host's clock — useful for studying the
// instrumentation itself, not for reproducing the paper's numbers.
//
// Examples:
//
//	threadtime -app minife -o minife.json
//	threadtime -app minimd -trials 3 -iters 50 -format csv -o md.csv
//	threadtime -app miniqmc -live -threads 8 -iters 20 -o live.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/miniapps"
	"earlybird/internal/omp"
	"earlybird/internal/simclock"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "threadtime:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("threadtime", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app     = fs.String("app", "minife", "application: minife | minimd | miniqmc")
		trials  = fs.Int("trials", 10, "number of trials")
		ranks   = fs.Int("ranks", 8, "processes per job")
		iters   = fs.Int("iters", 200, "iterations per run")
		threads = fs.Int("threads", 48, "threads per process")
		seed    = fs.Uint64("seed", 1, "master seed")
		live    = fs.Bool("live", false, "run real instrumented kernels instead of the calibrated model")
		format  = fs.String("format", "json", "output format: json | csv")
		out     = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage was printed, not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	var (
		ds  *trace.Dataset
		err error
	)
	if *live {
		ds, err = runLive(*app, *trials, *ranks, *iters, *threads, *seed)
	} else {
		ds, err = runModel(*app, cluster.Config{Trials: *trials, Ranks: *ranks, Iterations: *iters, Threads: *threads, Seed: *seed})
	}
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		return ds.WriteJSON(w)
	case "csv":
		return ds.WriteCSV(w)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

func runModel(app string, cfg cluster.Config) (*trace.Dataset, error) {
	var m workload.Model
	switch app {
	case "minife":
		m = workload.DefaultMiniFE()
	case "minimd":
		m = workload.DefaultMiniMD()
	case "miniqmc":
		m = workload.DefaultMiniQMC()
	default:
		return nil, fmt.Errorf("unknown app %q", app)
	}
	return cluster.RunColumnarDLB(m, cfg, dlb.Spec{}, 0)
}

func runLive(app string, trials, ranks, iters, threads int, seed uint64) (*trace.Dataset, error) {
	pool := omp.NewPool(threads)
	defer pool.Close()
	clock := simclock.NewReal()
	var factory func(trial, rank int) miniapps.App
	switch app {
	case "minife":
		factory = func(trial, rank int) miniapps.App { return miniapps.NewMiniFE(32, 32, 32) }
	case "minimd":
		factory = func(trial, rank int) miniapps.App {
			return miniapps.NewMiniMD(10, 4, seed+uint64(trial*1000+rank))
		}
	case "miniqmc":
		factory = func(trial, rank int) miniapps.App {
			return miniapps.NewMiniQMC(12, 400, seed+uint64(trial*1000+rank))
		}
	default:
		return nil, fmt.Errorf("unknown app %q", app)
	}
	return miniapps.RunStudy(factory, pool, clock, trials, ranks, iters), nil
}
