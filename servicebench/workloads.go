package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"

	"earlybird/internal/cluster"
	"earlybird/internal/serve"
)

// apps is the rotation every workload draws its applications from.
var apps = []string{"minife", "minimd", "miniqmc"}

// env is what a workload's set-up needs: the request geometry, the
// seeded request stream, the pinned worker counts and a scratch
// directory.
type env struct {
	// geom is the request geometry; each request replaces its seed.
	geom cluster.Config
	// base and appOffset come from the workload seed: request idx uses
	// geometry seed base+idx and app apps[(appOffset+idx) % 3].
	base      uint64
	appOffset int
	// workers is the server's execution slots (serve.Options.Workers);
	// fleet workers always get one.
	workers int
	clients int
	// warmDatasets is how many datasets set-up puts in each engine's
	// cache before the timed phase: the cache's default bound, so the
	// timed phase evicts from the start.
	warmDatasets int
	// dir is a fresh scratch directory for this set-up (durable stores).
	dir    string
	client *http.Client
	// tr is the run's tracer in a traced run, nil otherwise; workloads
	// that instrument the service's own calls wire it in at set-up.
	tr *tracer
}

// warmSeedOffset separates the geometry seeds of set-up datasets from
// those of requests, so no request ever hits a warmed dataset.
const warmSeedOffset = 1 << 40

func (e *env) seed(idx int) uint64   { return e.base + uint64(idx) }
func (e *env) warmSeed(k int) uint64 { return e.base + warmSeedOffset + uint64(k) }
func (e *env) app(idx int) string    { return apps[(e.appOffset+idx)%len(apps)] }
func (e *env) geometry(idx int) cluster.Config {
	g := e.geom
	g.Seed = e.seed(idx)
	return g
}

// splitmix64 derives well-spread values from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// layer is one per-layer metric of a traced run.
type layer struct {
	metric string
	unit   string
	// blocking layers lie on the request's blocking path and together
	// account for its latency; the others break a blocking layer down.
	blocking bool
	// fromSpans derives the per-request value from the request's span
	// self times in milliseconds, keyed by span name.
	fromSpans func(self map[string]float64) float64
	// fromCounters derives the value from the deployment's counter
	// deltas over the traced phase's n requests.
	fromCounters func(delta map[string]float64, n int) float64
}

// spanMS reads one span's self time in milliseconds.
func spanMS(name string) func(map[string]float64) float64 {
	return func(self map[string]float64) float64 { return self[name] }
}

// workloadSpec is one named benchmark workload.
type workloadSpec struct {
	name string
	// why is the one-line reason the workload exists.
	why string
	// clients is the closed-loop client count, capped at the CPU count.
	clients int
	// fixedRequests is the workload's fixed request count: the count at
	// which latency_tail_ms picks its percentile, and the requests over
	// which peak_live_heap_mib is sampled.
	fixedRequests int
	// layers are the traced run's per-layer metrics.
	layers []layer
	start  func(ctx context.Context, e *env) (deployment, error)
}

var workloads = []*workloadSpec{studyCold, sweepStream, sweepFleet}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want study-cold, sweep-stream or sweep-fleet)", name)
}

// perLayerMetrics lists every per-layer metric name with its unit, in
// report order; a traced run prints all of them, reading 0 for a layer
// its workload never calls.
func perLayerMetrics() [][2]string {
	seen := map[string]bool{}
	var out [][2]string
	add := func(name, unit string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, [2]string{name, unit})
		}
	}
	for _, w := range workloads {
		for _, l := range w.layers {
			add(l.metric, l.unit)
		}
	}
	add("serve.unattributed_ms", "ms")
	add("bench.attributed_share", "ratio")
	add("bench.trace_overhead_ms", "ms")
	return out
}

// encodeLikeServer renders v the way the service writes a reply or an
// NDJSON row.
func encodeLikeServer(v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// getStats reads a server's public /v1/stats counters.
func getStats(ctx context.Context, c *http.Client, base string) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// capClients bounds a client count by the CPU count.
func capClients(n int) int {
	if c := runtime.NumCPU(); n > c {
		return c
	}
	return n
}
