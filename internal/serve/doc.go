// Package serve is the study service: an HTTP front end over the
// campaign engine that turns the reproduction into a trafficked system.
// It exposes JSON endpoints for single studies (/v1/study), batched
// campaigns (/v1/campaign), feasibility assessments (/v1/feasibility),
// scenario sweeps streamed as NDJSON (/v1/sweep) and the strategy lab's
// delivery-strategy optimizer (/v1/strategies, JSON or NDJSON), plus
// per-endpoint latency and hit-rate counters at /v1/stats and a
// /v1/healthz probe.
//
// Three layers of work-sharing sit between a request and a workload
// fill, so under heavy identical traffic the service does the expensive
// part exactly once:
//
//   - a bounded LRU result cache keyed by the resolved spec — a repeat
//     of a recently answered study is a map lookup;
//   - singleflight request coalescing — N concurrent identical studies
//     attach to one in-flight execution and share its result;
//   - the engine's content-addressed dataset cache (itself
//     single-flighted and LRU-bounded via engine.SetMaxDatasets) — two
//     different analyses of the same (model, geometry, seed) share one
//     generated dataset.
//
// The sweep endpoint fans a grid of (app x geometry x alpha x laggard
// threshold) cells onto the engine and writes one NDJSON row per cell as
// it completes. Rows are computed on the cursor path
// (analysis.ComputeMetricsStreaming / Table1Streaming over the engine's
// cached dataset), and geometries larger than Options.MaxCachedSweepSamples bypass the
// dataset cache entirely via the streaming fill (core.StreamStudy), so
// huge geometries never materialise server-side in any form.
//
// The strategies endpoint sweeps a delivery-strategy grid — fixed and
// adaptive policies from internal/partcomm — over each (app, geometry)
// cell's columnar cursor and reports the frontier. Cells coalesce in
// their own result cache keyed by the resolved spec key plus a
// strategy-grid hash, so identical concurrent requests evaluate once
// while different grids still share the engine's dataset cache.
//
// Server shuts down gracefully: Shutdown stops accepting connections and
// drains in-flight requests. cmd/earlybirdd is the production binary;
// earlybird.Serve is the embeddable facade.
package serve
