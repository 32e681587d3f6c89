// Package engine executes campaigns: many studies fanned out over a
// bounded worker pool, backed by a content-addressed dataset cache keyed
// by (model name, geometry, seed). Cache entries hold the sealed
// trace.Dataset — one flat sample column — with the content fingerprint
// already computed during the fill. DatasetDLB and PrefetchDLB are the
// two dataset entry points. Identical study specs
// are deduplicated to a single execution, and distinct specs over the
// same dataset share one generation. Results are deterministic
// regardless of scheduling order because dataset generation is a pure
// function of (model, seed) and the analysis pipeline is pure over the
// dataset.
//
// The cache is bounded on request: SetMaxDatasets installs an LRU
// eviction policy so a long-lived serving process holds at most N
// datasets, regenerating evicted ones on demand. Single specs execute
// synchronously through RunSpec — the unit the serve layer's request
// coalescer collapses identical concurrent HTTP studies onto — with
// resolved specs exposing comparable deduplication keys via Resolve and
// Key.
//
// This is the batch substrate behind internal/experiments, cmd/repro,
// cmd/analyze, the earlybird.RunCampaign facade and the internal/serve
// study service — the outer level of parallelism over whole studies,
// above cluster.Fill's inner level over one study's trials and ranks.
package engine
