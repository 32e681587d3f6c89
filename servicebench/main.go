// Command servicebench is the repository's end-to-end benchmark. It
// starts the earlybird study service in-process on loopback, drives one
// named workload from closed-loop clients for a fixed time, checks the
// answers, and prints the metrics by name with their units; the last
// line of standard output is one JSON result object.
//
//	bash servicebench/run.sh --workload study-cold --seed 1 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports per-layer
// metrics instead: an untraced phase, then a traced phase in which each
// request's layer calls are timed from the benchmark's side; the spans
// are written to .bench_build/servicebench/ when the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark run.
type config struct {
	workload *workloadSpec
	seed     uint64
	duration time.Duration
	traced   bool
	// geom is the request geometry (its seed is replaced per request).
	geom cluster.Config
	// setups is how many times an untraced run sets the service up; the
	// last set-up serves the timed phase and setup_s is their median.
	setups int
	// checks is how many successful requests an untraced run recomputes
	// independently.
	checks int
	// outDir holds the run's scratch directories and trace files.
	outDir string
	// log receives progress lines with phase timings.
	log io.Writer
}

func defaultConfig() config {
	return config{
		geom:   cluster.DefaultConfig(),
		setups: 3,
		checks: 4,
		outDir: filepath.Join(".bench_build", "servicebench"),
		log:    io.Discard,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	cfg.log = stderr
	fs := flag.NewFlagSet("servicebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: study-cold, sweep-stream or sweep-fleet")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every request's geometry seed and app derive from it")
	seconds := fs.Int("seconds", 35, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "servicebench: bad arguments (workload %q: %v; seconds %d; trace %d)\n", *name, err, *seconds, *trace)
		return 2
	}
	cfg.workload = w
	cfg.duration = time.Duration(*seconds) * time.Second
	cfg.traced = *trace == 1

	// A hung service fails the run well inside the three minutes a run
	// may take, instead of blocking a client forever.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration+90*time.Second)
	defer cancel()
	res, err := runBenchmark(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "servicebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "servicebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is the line before the result: what ran, where, and the
// context each metric needs to be read.
type runRecord struct {
	Workload    string  `json:"workload"`
	Why         string  `json:"why"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Geometry    string  `json:"geometry"`
	Host        host    `json:"host"`
	Requests    int     `json:"requests"`
	Results     int     `json:"results"`
	FailedShare float64 `json:"failed_share"`
	Checked     int     `json:"checked_requests"`
	Tail        *tail   `json:"latency_tail,omitempty"`
	// HeapRequests is how many timed requests peak_live_heap_mib's
	// sampling window spanned.
	HeapRequests int       `json:"peak_heap_window_requests,omitempty"`
	SetupsS      []float64 `json:"setups_s,omitempty"`
	// Counters are the service's counts behind the per-layer metrics, at
	// the end of the timed phase.
	Counters map[string]float64 `json:"counters,omitempty"`
	Guards   []string           `json:"guard_violations,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
}

// tail says which percentile latency_tail_ms reports and how many
// samples lay beyond it.
type tail struct {
	Percentile    float64 `json:"percentile"`
	FixedRequests int     `json:"fixed_requests"`
	Samples       int     `json:"samples"`
	Beyond        int     `json:"beyond"`
}

// newEnv prepares a set-up's environment under dir.
func newEnv(cfg config, dir string, tr *tracer) *env {
	clients := capClients(cfg.workload.clients)
	// Salted by workload, so one seed gives each workload its own stream.
	mix := splitmix64(cfg.seed ^ uint64(len(cfg.workload.name))<<56)
	return &env{
		geom:         cfg.geom,
		base:         mix >> 20,
		appOffset:    int(splitmix64(mix) % uint64(len(apps))),
		workers:      runtime.NumCPU(),
		clients:      clients,
		warmDatasets: serve.DefaultMaxDatasets,
		dir:          dir,
		client:       newClient(clients),
		tr:           tr,
	}
}

func runBenchmark(ctx context.Context, cfg config, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	runDir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	setups := cfg.setups
	if cfg.traced {
		setups = 1
	}
	var (
		d       deployment
		e       *env
		setupsS []float64
	)
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
			runtime.GC()
		}
		e = newEnv(cfg, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)), tr)
		start := time.Now()
		d, err = cfg.workload.start(ctx, e)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupsS = append(setupsS, time.Since(start).Seconds())
		fmt.Fprintf(cfg.log, "servicebench: %s set-up %d/%d took %.3fs\n", cfg.workload.name, i+1, setups, setupsS[i])
	}
	defer d.close()
	first := e.clients // the warm-up used request indexes below this

	rec := runRecord{
		Workload: cfg.workload.name, Why: cfg.workload.why, Seed: cfg.seed,
		Seconds: cfg.duration.Seconds(), Traced: cfg.traced, Host: fingerprint(e),
		Geometry: fmt.Sprintf("%dx%dx%dx%d", cfg.geom.Trials, cfg.geom.Ranks, cfg.geom.Iterations, cfg.geom.Threads),
	}
	var res result
	if cfg.traced {
		res, err = tracedRun(ctx, cfg, d, e, tr, first, &rec, stdout)
	} else {
		rec.SetupsS = setupsS
		res, err = timedRun(ctx, cfg, d, e, first, median(setupsS), &rec)
	}
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// account totals a phase's requests into the record and the result.
func account(recs []*reqRecord, rec *runRecord, res *result) {
	for _, r := range recs {
		res.Attempted += r.expected
		res.Failed += r.failed
		rec.Requests++
		rec.Results += r.ok
		rec.Guards = append(rec.Guards, r.guard...)
		for _, e := range r.errs {
			if len(rec.Errors) < 10 {
				rec.Errors = append(rec.Errors, fmt.Sprintf("request %d: %s", r.idx, e))
			}
		}
	}
}

// finish sets the record's failure share and the result's verdict.
func finish(rec *runRecord, res *result) {
	if res.Attempted > 0 {
		rec.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0 && len(rec.Guards) == 0
}

// latencies returns the latencies and first-result times of the
// requests whose every result was correct.
func latencies(recs []*reqRecord) (lat, first []float64) {
	for _, r := range recs {
		if r.succeeded() {
			lat = append(lat, ms(r.latency))
			first = append(first, ms(r.first))
		}
	}
	return lat, first
}

// verifySample recomputes a seeded sample of successful requests and
// marks every wrong result failed.
func verifySample(cfg config, d deployment, recs []*reqRecord) int {
	var ok []*reqRecord
	for _, r := range recs {
		if r.succeeded() {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].idx < ok[j].idx })
	rng := rand.New(rand.NewPCG(cfg.seed, 0x636865636b)) // "check"
	rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	n := min(cfg.checks, len(ok))
	for _, r := range ok[:n] {
		for _, err := range d.verify(r) {
			r.wrong(err)
		}
	}
	return n
}

// timedRun is an untraced run: the closed loops for the configured
// time, then sampled recomputation and the path guards.
func timedRun(ctx context.Context, cfg config, d deployment, e *env, first int, setupS float64, rec *runRecord) (result, error) {
	// The live heap is sampled until the workload's fixed request count
	// has completed, so a faster service, which completes more requests
	// in the window and so holds more results in the service's result
	// cache, reads the same peak.
	fixed := cfg.workload.fixedRequests
	runtime.GC()
	allocs0 := readMetric(allocsMetric)
	probe := startMemProbe(10 * time.Millisecond)
	recs, wall, _ := drive(ctx, d, e.clients, first, cfg.duration, nil, func(n int) {
		if n == fixed {
			probe.end()
		}
	})
	peak := probe.wait()
	allocs := readMetric(allocsMetric) - allocs0
	rec.HeapRequests = min(fixed, len(recs))

	fmt.Fprintf(cfg.log, "servicebench: timed phase: %d requests in %.3fs\n", len(recs), wall.Seconds())
	rec.Counters = d.counters()
	start := time.Now()
	rec.Checked = verifySample(cfg, d, recs)
	fmt.Fprintf(cfg.log, "servicebench: recomputed %d requests in %.3fs\n", rec.Checked, time.Since(start).Seconds())
	var res result
	account(recs, rec, &res)
	rec.Guards = append(rec.Guards, d.guards()...)
	finish(rec, &res)

	lat, firsts := latencies(recs)
	p := tailPercentile(fixed)
	rec.Tail = &tail{Percentile: p, FixedRequests: fixed, Samples: len(lat), Beyond: beyond(p, len(lat))}
	const mib = 1 << 20
	results := float64(max(rec.Results, 1))
	res.Metrics = map[string]metric{
		"latency_p50_ms":       {median(lat), "ms"},
		"latency_tail_ms":      {percentile(append([]float64(nil), lat...), p), "ms"},
		"first_result_ms":      {median(firsts), "ms"},
		"results_per_s":        {float64(rec.Results) / wall.Seconds(), "1/s"},
		"setup_s":              {setupS, "s"},
		"peak_live_heap_mib":   {float64(peak) / mib, "MiB"},
		"alloc_mib_per_result": {float64(allocs) / mib / results, "MiB"},
	}
	return res, nil
}

// layerReport is one row of a traced run's report.
type layerReport struct {
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Blocking bool    `json:"blocking"`
	// Share is the layer's median over the untraced latency median
	// (time layers only).
	Share float64 `json:"share,omitempty"`
}

// tracedRun splits the configured time between an untraced phase (a
// third), which gives the reference latency, and a traced phase, whose
// spans give the per-layer metrics.
func tracedRun(ctx context.Context, cfg config, d deployment, e *env, tr *tracer, first int, rec *runRecord, stdout io.Writer) (result, error) {
	plain, _, next := drive(ctx, d, e.clients, first, cfg.duration/3, nil, nil)
	before := d.counters()
	traced, _, _ := drive(ctx, d, e.clients, next, cfg.duration-cfg.duration/3, tr, nil)
	after := d.counters()
	fmt.Fprintf(cfg.log, "servicebench: %d untraced and %d traced requests\n", len(plain), len(traced))

	var res result
	account(plain, rec, &res)
	account(traced, rec, &res)
	rec.Guards = append(rec.Guards, d.guards()...)
	finish(rec, &res)

	plainLat, _ := latencies(plain)
	tracedLat, _ := latencies(traced)
	e2e := median(plainLat)

	// Per request, the self time of every span name, in milliseconds; the
	// requests counted are the traced phase's successful ones.
	self := selfTimes(tr.snapshot())
	var reqs []map[string]float64
	for _, r := range traced {
		if !r.succeeded() {
			continue
		}
		m := map[string]float64{}
		for name, d := range self[int64(r.idx)] {
			m[name] = ms(d)
		}
		reqs = append(reqs, m)
	}
	if len(reqs) == 0 {
		return res, fmt.Errorf("traced phase completed no request")
	}
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}

	values := map[string]float64{}
	var rows []layerReport
	var attributed float64
	for _, l := range cfg.workload.layers {
		var v float64
		if l.fromSpans != nil {
			xs := make([]float64, len(reqs))
			for i, m := range reqs {
				xs[i] = l.fromSpans(m)
			}
			v = median(xs)
		} else {
			v = l.fromCounters(delta, len(reqs))
		}
		values[l.metric] = v
		row := layerReport{Metric: l.metric, Value: v, Unit: l.unit, Blocking: l.blocking}
		if l.unit == "ms" {
			row.Share = v / e2e
		}
		if l.blocking {
			attributed += v
		}
		rows = append(rows, row)
	}
	values["serve.unattributed_ms"] = e2e - attributed
	values["bench.attributed_share"] = attributed / e2e
	values["bench.trace_overhead_ms"] = median(tracedLat) - e2e

	res.Metrics = map[string]metric{}
	for _, nu := range perLayerMetrics() {
		res.Metrics[nu[0]] = metric{values[nu[0]], nu[1]}
	}
	spansFile := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload.name, cfg.seed))
	if err := tr.writeFile(spansFile); err != nil {
		return res, err
	}
	report := map[string]any{
		"latency_p50_ms_untraced": e2e,
		"latency_p50_ms_traced":   median(tracedLat),
		"trace_overhead_ms":       values["bench.trace_overhead_ms"],
		"unattributed_ms":         values["serve.unattributed_ms"],
		"unattributed_share":      values["serve.unattributed_ms"] / e2e,
		"attributed_share":        values["bench.attributed_share"],
		"traced_requests":         len(reqs),
		"layers":                  rows,
		"spans_file":              spansFile,
	}
	line, err := json.Marshal(map[string]any{"trace_report": report})
	if err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	printReport(stdout, cfg.workload.name, e2e, rows, values)
	return res, nil
}

// printReport renders the traced run's per-layer table for people.
func printReport(w io.Writer, name string, e2e float64, rows []layerReport, values map[string]float64) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: untraced latency p50 %.2f ms, tracing overhead %+.2f ms\n", name, e2e, values["bench.trace_overhead_ms"])
	for _, r := range rows {
		kind := "within a blocking layer"
		if r.Blocking {
			kind = "blocking"
		}
		share := ""
		if r.Unit == "ms" {
			share = fmt.Sprintf("%5.1f%%", 100*r.Share)
		}
		fmt.Fprintf(&b, "#   %-30s %12.4f %-5s %7s  %s\n", r.Metric, r.Value, r.Unit, share, kind)
	}
	fmt.Fprintf(&b, "#   %-30s %12.4f %-5s %6.1f%%\n", "serve.unattributed_ms", values["serve.unattributed_ms"], "ms", 100*values["serve.unattributed_ms"]/e2e)
	io.WriteString(w, b.String())
}
