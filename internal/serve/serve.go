package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/telemetry"
)

// Defaults for Options' zero values.
const (
	// DefaultMaxResults is the LRU result cache's default capacity.
	DefaultMaxResults = 256
	// DefaultMaxDatasets is the engine dataset cache's default bound.
	DefaultMaxDatasets = 64
	// DefaultMaxCachedSweepSamples is the geometry size (total samples)
	// above which sweep cells bypass the dataset cache and run on the
	// streaming fill: four paper geometries (~24 MiB columnar each).
	DefaultMaxCachedSweepSamples = 4 * 768000
	// DefaultMaxStudySamples is the largest geometry a materialising
	// study request (/v1/study, /v1/feasibility, /v1/campaign) accepts:
	// ten paper geometries (~60 MiB columnar). Larger analyses belong on
	// /v1/sweep, whose streaming path is bounded-memory at any size.
	DefaultMaxStudySamples = 10 * 768000
	// maxSweepCells bounds one sweep request's grid.
	maxSweepCells = 4096
	// maxCampaignSpecs bounds one campaign request's batch.
	maxCampaignSpecs = 4096
	// maxRequestBytes bounds a request body; the largest legitimate
	// bodies (a maxCampaignSpecs campaign with explicit geometries and
	// fabrics) stay well under it.
	maxRequestBytes = 8 << 20
)

// Options configures a Server. The zero value serves with one worker per
// CPU, a 256-entry result cache and a 64-dataset engine cache.
type Options struct {
	// Workers bounds concurrently executing studies; <= 0 means one per
	// usable CPU.
	Workers int
	// MaxResults bounds the LRU result cache; 0 means
	// DefaultMaxResults, negative disables result caching.
	MaxResults int
	// MaxDatasets bounds the engine's dataset cache (LRU eviction); 0
	// means DefaultMaxDatasets, negative leaves the cache unbounded.
	MaxDatasets int
	// MaxCachedSweepSamples is the largest geometry (by total samples) a
	// sweep cell will generate through the dataset cache; larger cells
	// use the bounded-memory streaming fill and are never stored. 0
	// means DefaultMaxCachedSweepSamples.
	MaxCachedSweepSamples int
	// MaxStudySamples is the largest geometry (by total samples) the
	// materialising study endpoints accept; larger requests are rejected
	// with a pointer to /v1/sweep. 0 means DefaultMaxStudySamples.
	MaxStudySamples int
	// DefaultDLB is the rebalancing policy applied to study, sweep and
	// strategies requests that leave their policy unset (the earlybirdd
	// -dlb flag). Requests that set one — including an explicit "static"
	// — keep it. Shard requests never default: a coordinator has already
	// resolved its cell's policy and the shard must execute it literally.
	DefaultDLB dlb.Spec
	// Engine, when non-nil, is used instead of a fresh engine — for
	// sharing a dataset cache with campaigns run outside the server.
	// Workers and MaxDatasets are ignored in that case.
	Engine *engine.Engine
	// Fleet, when non-nil, turns this server into a federation
	// coordinator: /v1/sweep cells are dispatched to the fleet's workers
	// (internal/fleet implements the interface) and only run locally when
	// no healthy peer can take them. /v1/stats gains a fleet section.
	Fleet FleetDispatcher
	// AdmissionWatermark enables adaptive admission: while the live
	// aggregate fill efficiency measured across in-flight studies is
	// below it, new materialising executions (/v1/study,
	// /v1/feasibility, campaign entries) are shed with
	// 503 + Retry-After instead of admitted into the execution
	// semaphore. Cache hits and coalesced joins are never shed, and
	// /v1/sweep — the bounded-memory path shed clients are pointed at —
	// is exempt. 0 (or negative) disables admission control.
	AdmissionWatermark float64
	// Telemetry, when non-nil, is the live-telemetry registry the server
	// feeds and reads; nil creates a fresh one. Supply one to share the
	// registry with out-of-band consumers (tests inject synthetic
	// trackers through it).
	Telemetry *telemetry.Registry
}

// FleetDispatcher federates sweep cells across remote workers. The serve
// package defines the interface (internal/fleet provides the
// implementation) so coordinator wiring never creates an import cycle.
type FleetDispatcher interface {
	// DispatchCell executes one cell on the fleet, returning the merged
	// row. ok == false means the fleet could not place the cell (no
	// healthy workers) and the caller should run it locally.
	DispatchCell(ctx context.Context, cell SweepCell) (row SweepRow, ok bool)
	// Snapshot reports the fleet's registry and traffic counters.
	Snapshot() FleetSnapshot
}

// Server is the study service: an http.Handler exposing the /v1 API over
// one campaign engine, plus a managed http.Server for ListenAndServe /
// Shutdown. Create with New; safe for concurrent use.
type Server struct {
	opts            Options
	eng             *engine.Engine
	co              *coalescer[engine.SpecKey, engine.Result]
	strat           *coalescer[strategyCellKey, StrategyRow]
	mux             *http.ServeMux
	start           time.Time
	endpoints       map[string]*endpointStats
	sources         sourceCounters
	stratSources    sourceCounters
	maxSweepSamples int
	maxStudySamples int
	httpSrv         *http.Server
	// sem bounds the server's concurrently executing studies and sweep
	// cells across all requests — the engine's Workers bound applied at
	// the service level. Coalesced joiners and cache hits take no slot.
	sem chan struct{}
	// fleetCells counts sweep cells answered by the fleet;
	// fleetFallbacks counts cells the fleet declined (no healthy
	// workers) that ran locally instead.
	fleetCells     atomic.Int64
	fleetFallbacks atomic.Int64
	// tel tracks in-flight study generations (the /v1/progress and
	// /metrics signal source); admissionSheds counts requests adaptive
	// admission refused.
	tel            *telemetry.Registry
	admissionSheds atomic.Int64
}

// New returns a ready-to-serve study service.
func New(opts Options) *Server {
	eng := opts.Engine
	if eng == nil {
		eng = engine.New(opts.Workers)
		maxDS := opts.MaxDatasets
		if maxDS == 0 {
			maxDS = DefaultMaxDatasets
		}
		if maxDS > 0 {
			eng.SetMaxDatasets(maxDS)
		}
	}
	maxResults := opts.MaxResults
	if maxResults == 0 {
		maxResults = DefaultMaxResults
	}
	maxSweep := opts.MaxCachedSweepSamples
	if maxSweep <= 0 {
		maxSweep = DefaultMaxCachedSweepSamples
	}
	maxStudy := opts.MaxStudySamples
	if maxStudy <= 0 {
		maxStudy = DefaultMaxStudySamples
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	s := &Server{
		opts:            opts,
		eng:             eng,
		co:              newCoalescer[engine.SpecKey, engine.Result](maxResults),
		strat:           newCoalescer[strategyCellKey, StrategyRow](maxResults),
		mux:             http.NewServeMux(),
		start:           time.Now(),
		endpoints:       map[string]*endpointStats{},
		maxSweepSamples: maxSweep,
		maxStudySamples: maxStudy,
		sem:             make(chan struct{}, eng.Workers()),
		tel:             tel,
	}
	// Every dataset generation this server triggers — directly or via a
	// shared engine — reports live progress into the registry. A shared
	// engine's previous factory is replaced; the last server wired wins.
	eng.SetProgress(s.generationProgress)
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.route("POST", "/v1/study", s.handleStudy)
	s.route("POST", "/v1/campaign", s.handleCampaign)
	s.route("POST", "/v1/feasibility", s.handleFeasibility)
	s.route("POST", "/v1/sweep", s.handleSweep)
	s.route("POST", "/v1/shard", s.handleShard)
	s.route("POST", "/v1/strategies", s.handleStrategies)
	s.route("POST", "/v1/scenario", s.handleScenario)
	s.route("POST", "/v1/fleet/join", s.handleFleetJoin)
	s.route("POST", "/v1/fleet/leave", s.handleFleetLeave)
	s.route("GET", "/v1/stats", s.handleStats)
	s.route("GET", "/v1/healthz", s.handleHealthz)
	s.route("GET", "/v1/progress", s.handleProgress)
	s.route("GET", "/metrics", s.handleMetrics)
	return s
}

// ObservabilityHandler returns a handler exposing only the read-only
// observability surface (GET /metrics, GET /v1/progress, GET
// /v1/healthz) — what cmd/earlybirdd serves on -metrics-addr so scrapes
// stay off the study listener.
func (s *Server) ObservabilityHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// Engine returns the server's campaign engine, so callers can share its
// dataset cache or read its counters.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the service's routing handler, for embedding the API
// in an existing server or an httptest harness.
func (s *Server) Handler() http.Handler { return s.mux }

// route registers one instrumented endpoint.
func (s *Server) route(method, path string, h http.HandlerFunc) {
	st := newEndpointStats()
	s.endpoints[path] = st
	s.mux.HandleFunc(method+" "+path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		st.record(start, sw.status >= 400)
	})
}

// statusWriter records the response status for the endpoint counters and
// forwards Flush for the NDJSON stream.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError renders the uniform error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decodeBody strictly decodes one JSON request body, bounded at
// maxRequestBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// acquire takes one execution slot, bounding the server's concurrently
// executing studies/sweep cells across all requests.
func (s *Server) acquire() func() {
	s.sem <- struct{}{}
	return func() { <-s.sem }
}

// clampWorkers bounds one request's concurrency: the engine's worker
// count caps it, the job count floors it.
func (s *Server) clampWorkers(requested, jobs int) int {
	w := requested
	if w <= 0 || w > s.eng.Workers() {
		w = s.eng.Workers()
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// fanOut runs fn(i) for every i in [0, n) across workers goroutines and
// waits for all of them. The campaign, sweep and strategies handlers
// share it as their per-request worker pool.
func fanOut(n, workers int, fn func(int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// startNDJSON commits a streaming NDJSON response (with a cell-count
// header) and returns a serialised emit function: one row per line,
// flushed the moment it is written, safe to call from worker
// goroutines.
func startNDJSON(w http.ResponseWriter, cellsHeader string, cells int) func(any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(cellsHeader, fmt.Sprint(cells))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return func(row any) {
		mu.Lock()
		defer mu.Unlock()
		_ = enc.Encode(row) // Encode terminates each row with '\n'
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// runStudy resolves one wire spec and answers it through the coalescing
// stack: LRU result cache, then singleflight join, then execution on the
// engine (whose dataset cache is a further sharing layer underneath).
func (s *Server) runStudy(wire StudySpec) (engine.Result, Source, error) {
	sp, err := wire.toSpec()
	if err != nil {
		return engine.Result{}, "", err
	}
	if wire.Policy == nil || wire.Policy.DLB == nil {
		sp.DLB = s.opts.DefaultDLB
	}
	resolved, err := sp.Resolve()
	if err != nil {
		return engine.Result{}, "", err
	}
	if n := resolved.Geometry.Samples(); n > s.maxStudySamples {
		return engine.Result{}, "", fmt.Errorf(
			"geometry has %d samples, over the study limit %d; use /v1/sweep, whose streaming path is bounded-memory at any size",
			n, s.maxStudySamples)
	}
	return s.runResolved(resolved)
}

// runResolved answers one already-resolved spec through the coalescing
// stack — the shared tail of /v1/study, /v1/feasibility, /v1/campaign
// and /v1/scenario cells. Dataset-backed specs coalesce too: their key
// includes the dataset's identity, so cells of one compiled scenario
// that collapse to the same study share a single execution.
func (s *Server) runResolved(resolved engine.Spec) (engine.Result, Source, error) {
	res, src := s.co.do(resolved.Key(), func() (engine.Result, bool) {
		// Adaptive admission gates the execution, not the lookup: cache
		// hits and joins to in-flight executions cost no fill capacity
		// and are always served.
		if err := s.admit(); err != nil {
			return engine.Result{Spec: resolved, Err: err}, false
		}
		defer s.acquire()()
		r, _ := s.eng.RunSpec(resolved)
		// The reply needs only the analysed fields. A cached Study would
		// keep its dataset live after the engine's cache evicted it.
		r.Study = nil
		return r, r.Err == nil
	})
	s.sources.count(src)
	return res, src, res.Err
}

// studyResponse assembles the wire reply from an engine result.
func studyResponse(r engine.Result, src Source) StudyResponse {
	return StudyResponse{
		App:             r.Spec.App,
		Geometry:        r.Spec.Geometry,
		Alpha:           r.Spec.Alpha,
		DLB:             r.Spec.DLB,
		Metrics:         r.Metrics,
		Table1:          r.Table1,
		Assessment:      r.Assessment,
		Source:          src,
		DatasetCacheHit: r.CacheHit,
	}
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	var wire StudySpec
	if err := decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, src, err := s.runStudy(wire)
	if err != nil {
		writeStudyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, studyResponse(res, src))
}

func (s *Server) handleFeasibility(w http.ResponseWriter, r *http.Request) {
	var wire StudySpec
	if err := decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, src, err := s.runStudy(wire)
	if err != nil {
		writeStudyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FeasibilityResponse{
		App:        res.Spec.App,
		Geometry:   res.Spec.Geometry,
		Assessment: res.Assessment,
		Source:     src,
	})
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign needs at least one spec"))
		return
	}
	if len(req.Specs) > maxCampaignSpecs {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign has %d specs, limit %d", len(req.Specs), maxCampaignSpecs))
		return
	}

	resp := CampaignResponse{Results: make([]CampaignEntry, len(req.Specs))}
	fanOut(len(req.Specs), s.clampWorkers(req.Workers, len(req.Specs)), func(idx int) {
		entry := CampaignEntry{Index: idx}
		res, src, err := s.runStudy(req.Specs[idx])
		if err != nil {
			entry.Err = err.Error()
		} else {
			entry.StudyResponse = studyResponse(res, src)
		}
		resp.Results[idx] = entry
	})

	for i := range resp.Results {
		if resp.Results[i].Err != "" {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSec: time.Since(s.start).Seconds(),
		Endpoints: make(map[string]EndpointSnapshot, len(s.endpoints)),
		Study: StudySourceStats{
			ResultCacheHits: s.sources.lruHits.Load(),
			Coalesced:       s.sources.coalesced.Load(),
			Executed:        s.sources.executed.Load(),
			ResultCacheSize: s.co.size(),
		},
		Strategies: StudySourceStats{
			ResultCacheHits: s.stratSources.lruHits.Load(),
			Coalesced:       s.stratSources.coalesced.Load(),
			Executed:        s.stratSources.executed.Load(),
			ResultCacheSize: s.strat.size(),
		},
		Engine: EngineStats{
			Executions:      s.eng.Executions(),
			CachedDatasets:  s.eng.CachedDatasets(),
			EvictedDatasets: s.eng.EvictedDatasets(),
			Workers:         s.eng.Workers(),
		},
	}
	tot := s.tel.Totals()
	resp.Telemetry = TelemetryStats{
		StudiesStarted:  tot.StudiesStarted,
		StudiesFinished: tot.StudiesFinished,
		ActiveStudies:   tot.ActiveStudies,
		Blocks:          tot.Blocks,
		Samples:         tot.Samples,
		BusySeconds:     tot.BusySeconds,
		LendEvents:      tot.LendEvents,
		Active:          s.tel.Active(),
	}
	eff, live := s.tel.Efficiency()
	resp.Admission = AdmissionStats{
		Watermark:  s.opts.AdmissionWatermark,
		Efficiency: eff,
		SignalLive: live,
		Sheds:      s.admissionSheds.Load(),
	}
	for path, st := range s.endpoints {
		resp.Endpoints[path] = st.snapshot()
	}
	if s.opts.Fleet != nil {
		snap := s.opts.Fleet.Snapshot()
		snap.CellsDispatched = s.fleetCells.Load()
		snap.LocalFallbacks = s.fleetFallbacks.Load()
		resp.Fleet = &snap
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthzResponse is the /v1/healthz reply. Beyond liveness it carries
// the worker's live load signal: a fleet coordinator's probe loop reads
// Capacity and weights rendezvous scheduling with it, so cells drain
// around a degraded worker long before it goes binary-unhealthy.
type HealthzResponse struct {
	Status string `json:"status"`
	// ActiveStudies is the number of generations currently filling.
	ActiveStudies int `json:"active_studies"`
	// Efficiency is the live aggregate fill efficiency (0 when idle).
	Efficiency float64 `json:"efficiency"`
	// Capacity is the scheduling weight this worker advertises: 1 when
	// idle, otherwise its live efficiency floored at minWorkerCapacity.
	Capacity float64 `json:"capacity"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok", ActiveStudies: s.tel.ActiveCount(), Capacity: 1}
	if eff, live := s.tel.Efficiency(); live {
		resp.Efficiency = eff
		resp.Capacity = eff
		if resp.Capacity < minWorkerCapacity {
			resp.Capacity = minWorkerCapacity
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ListenAndServe listens on addr and serves until Shutdown (returning
// http.ErrServerClosed) or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	err = s.Serve(ln)
	ln.Close() // usually already closed by Shutdown; harmless otherwise
	return err
}

// Serve serves on an existing listener until Shutdown or error. A server
// that was already shut down returns http.ErrServerClosed immediately.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests drain until they finish or ctx expires. Shutting
// down before Serve is safe and makes any later Serve return
// http.ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}

// defaultedGeometry maps the zero geometry to the paper's, mirroring
// engine.Spec's defaulting for wire specs that omit the field.
func defaultedGeometry(g cluster.Config) cluster.Config {
	if g == (cluster.Config{}) {
		return cluster.DefaultConfig()
	}
	return g
}
