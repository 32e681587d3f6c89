package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/engine"
	"earlybird/internal/fleet"
	"earlybird/internal/serve"
	"earlybird/internal/workload"
)

// fleetWorkers is how many in-process workers the coordinator federates;
// each has one execution slot.
const fleetWorkers = 2

// sweepFleet has two clients, not one: the fleet places each (cell,
// shard) pair on its own, so one request's four shards land 2+2, 3+1
// or 4+0 on the two single-slot workers, and a lone client's latency
// has three modes whose mix is drawn from the seed. A second request in
// flight keeps the other worker's queue fed, which blurs the modes and
// keeps the placement draw out of throughput.
var sweepFleet = &workloadSpec{
	name:          "sweep-fleet",
	why:           "the sweep-stream request from two clients to a coordinator federating two loopback workers with a durable store: trial shards, accumulator codecs over HTTP, merge and sealed store writes",
	clients:       2,
	fixedRequests: 120,
	layers: []layer{
		{metric: "fleet.dispatch_ms", unit: "ms", blocking: true, fromSpans: spanMS("fleet.dispatch")},
		{metric: "serve.shard_ms", unit: "ms", blocking: true, fromSpans: spanMS("serve.shard")},
		{metric: "serve.encode_ms", unit: "ms", blocking: true, fromSpans: spanMS("serve.encode")},
		{metric: "trace.cursor_scan_ms", unit: "ms", fromSpans: spanMS("trace.cursor_scan")},
		{metric: "analysis.metrics_ingest_ms", unit: "ms", fromSpans: func(s map[string]float64) float64 {
			return s["cursor+metrics"] - s["trace.cursor_scan"]
		}},
		{metric: "normality.table1_ingest_ms", unit: "ms", fromSpans: func(s map[string]float64) float64 {
			return s["cursor+table1"] - s["trace.cursor_scan"]
		}},
		{metric: "analysis.state_codec_us", unit: "us", fromSpans: func(s map[string]float64) float64 {
			return 1000 * s["analysis.state_codec"]
		}},
		{metric: "analysis.state_bytes", unit: "bytes", fromCounters: func(d map[string]float64, n int) float64 {
			return d["state_bytes"] / float64(n)
		}},
		{metric: "fleet.store_save_ms", unit: "ms", fromSpans: spanMS("fleet.store_save")},
		{metric: "fleet.shard_useful_ratio", unit: "ratio", fromCounters: func(d map[string]float64, _ int) float64 {
			return d["shards_merged"] / d["shards_dispatched"]
		}},
	},
	start: startSweepFleet,
}

// spanRef names a span that later spans of the same request hang off.
type spanRef struct{ req, id int64 }

// parentSpanKey carries a spanRef in a request context.
type parentSpanKey struct{}

// fleetDeployment is a coordinator federating in-process workers.
type fleetDeployment struct {
	e        *env
	fl       *fleet.Fleet
	store    *fleet.Store
	coordURL string
	stops    []func()
	// warnings counts the durable store's corruption warnings.
	warnings atomic.Int64
	// replayStore receives the traced replay's store writes.
	replayStore *fleet.Store
	// stateBytes sums the replayed shards' accumulator state sizes.
	stateBytes atomic.Int64
	// roots maps a traced request's geometry seed to its root span, so
	// the coordinator's dispatches hang off the request that caused them.
	roots sync.Map
}

func startSweepFleet(ctx context.Context, e *env) (deployment, error) {
	d := &fleetDeployment{e: e}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	// The workers' dataset caches start at their bound, like the
	// study-cold server's, so memory is at steady state from the start.
	shardGeom := e.geom
	shardGeom.Trials -= e.geom.Trials / fleetWorkers
	peers := make([]string, fleetWorkers)
	warmErrs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i := range peers {
		srv := serve.New(serve.Options{Workers: 1})
		url, stop, err := listen(srv)
		if err != nil {
			return nil, err
		}
		peers[i] = url
		d.stops = append(d.stops, stop)
		wg.Add(1)
		go func() {
			defer wg.Done()
			warmErrs[i] = warmEngine(srv.Engine(), e, shardGeom, i)
		}()
	}
	wg.Wait()
	if err := errors.Join(warmErrs...); err != nil {
		return nil, err
	}

	logf := func(format string, args ...any) {
		d.warnings.Add(1)
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	var err error
	if d.store, err = fleet.OpenStore(filepath.Join(e.dir, "store"), logf); err != nil {
		return nil, err
	}
	opts := fleet.Options{Peers: peers, Store: d.store}
	if e.tr != nil {
		opts.Client = &http.Client{Transport: &shardTransport{base: http.DefaultTransport, tr: e.tr}}
		if d.replayStore, err = fleet.OpenStore(filepath.Join(e.dir, "replay-store"), logf); err != nil {
			return nil, err
		}
	}
	if d.fl, err = fleet.New(opts); err != nil {
		return nil, err
	}
	if healthy := d.fl.Probe(ctx); healthy != fleetWorkers {
		return nil, fmt.Errorf("%d of %d fleet workers healthy", healthy, fleetWorkers)
	}
	var dispatcher serve.FleetDispatcher = d.fl
	if e.tr != nil {
		dispatcher = tracedFleet{Fleet: d.fl, d: d}
	}
	coord := serve.New(serve.Options{Workers: e.workers, Fleet: dispatcher})
	url, stop, err := listen(coord)
	if err != nil {
		return nil, err
	}
	d.coordURL = url
	d.stops = append(d.stops, stop)
	if err := warmUp(ctx, d, e.clients); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// warmEngine fills an engine's dataset cache to its bound with datasets
// of geometry g that no request asks for; salt keeps engines' seeds
// apart.
func warmEngine(eng *engine.Engine, e *env, g cluster.Config, salt int) error {
	for k := 0; eng.CachedDatasets() < e.warmDatasets; k++ {
		model, err := workload.ByName(apps[k%len(apps)])
		if err != nil {
			return err
		}
		g.Seed = e.warmSeed(k*fleetWorkers + salt)
		if _, _, err := eng.Columnar(model, g); err != nil {
			return fmt.Errorf("warming a worker's dataset cache: %w", err)
		}
	}
	return nil
}

func (d *fleetDeployment) do(ctx context.Context, idx int, rootID int64) *reqRecord {
	if rootID != 0 {
		seed := d.e.seed(idx)
		d.roots.Store(seed, spanRef{req: int64(idx), id: rootID})
		defer d.roots.Delete(seed)
	}
	return doSweep(ctx, d.e, d.coordURL, idx, func(row serve.SweepRow) string {
		if row.Shards < 2 {
			return fmt.Sprintf("row computed in %d shards (want at least 2)", row.Shards)
		}
		return ""
	})
}

// tracedFleet is the coordinator's dispatcher in a traced run: the
// fleet itself, with each DispatchCell call of a traced request
// recorded as a span that the call's shard round trips hang off.
type tracedFleet struct {
	*fleet.Fleet
	d *fleetDeployment
}

func (t tracedFleet) DispatchCell(ctx context.Context, cell serve.SweepCell) (serve.SweepRow, bool) {
	ref, ok := t.d.roots.Load(cell.Geometry.Seed)
	if !ok {
		return t.Fleet.DispatchCell(ctx, cell)
	}
	root := ref.(spanRef)
	s := t.d.e.tr.begin("fleet.dispatch", root.req, root.id)
	row, placed := t.Fleet.DispatchCell(context.WithValue(ctx, parentSpanKey{}, spanRef{req: root.req, id: s.id()}), cell)
	s.end()
	return row, placed
}

// shardTransport records each traced shard request, from sending it to
// closing its reply body, as a serve.shard span.
type shardTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *shardTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, ok := r.Context().Value(parentSpanKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(r)
	}
	s := t.tr.begin("serve.shard", parent.req, parent.id)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		s.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, s: s}
	return resp, nil
}

// spanBody ends its span when the body is first closed.
type spanBody struct {
	io.ReadCloser
	s    *openSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.s.end() })
	return b.ReadCloser.Close()
}

// trialShards splits a cell's trials the way the fleet does for
// fleetWorkers healthy workers: contiguous, balanced ranges, returned as
// the shard index of each trial.
func trialShards(trials int) []int {
	k := min(fleetWorkers, trials)
	shard := make([]int, trials)
	for i := 0; i < k; i++ {
		for t := i * trials / k; t < (i+1)*trials/k; t++ {
			shard[t] = i
		}
	}
	return shard
}

// singleNodeRow is the row one server computes for a cell at or below
// its sweep cache bound: both accumulators over a cursor of the filled
// dataset.
func singleNodeRow(c serve.SweepCell) (serve.SweepRow, error) {
	model, err := workload.ByName(c.App)
	if err != nil {
		return serve.SweepRow{}, err
	}
	col, err := cluster.RunColumnarDLB(model, c.Geometry, c.DLB, 0)
	if err != nil {
		return serve.SweepRow{}, err
	}
	m := analysis.ComputeMetricsStreaming(c.App, col.Cursor(), c.LaggardThresholdSec)
	return serve.SweepRow{Index: c.Index, Metrics: m,
		Table1:         analysis.Table1Streaming(c.App, col.Cursor(), c.Alpha),
		Recommendation: core.ClassifyMetrics(m)}, nil
}

func (d *fleetDeployment) verify(rec *reqRecord) []error {
	r := rec.reply.(*sweepReply)
	var errs []error
	for i, c := range r.cells {
		want, err := singleNodeRow(c)
		if err == nil {
			err = sameRow(r.rows[i], want, false)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", rec.idx, err))
		}
	}
	return errs
}

// replay times, per cell, what the workers and the coordinator do with
// a cell besides the HTTP exchange: a bare cursor pass over the cell's
// samples, cursor ingest into each accumulator per trial shard, the
// shard states' marshal, unmarshal and merge, the store write, and the
// row encoding. The merged result is checked against the row.
func (d *fleetDeployment) replay(rec *reqRecord, tr *tracer) []error {
	r := rec.reply.(*sweepReply)
	req := int64(rec.idx)
	parent := tr.begin("replay", req, 0)
	defer parent.end()
	var errs []error
	for i, c := range r.cells {
		if err := d.replayCell(c, r.rows[i], req, parent.id(), tr); err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", rec.idx, err))
		}
	}
	return errs
}

func (d *fleetDeployment) replayCell(c serve.SweepCell, row serve.SweepRow, req, parent int64, tr *tracer) error {
	model, err := workload.ByName(c.App)
	if err != nil {
		return err
	}
	col, err := cluster.RunColumnarDLB(model, c.Geometry, c.DLB, 0)
	if err != nil {
		return err
	}
	shardOf := trialShards(c.Geometry.Trials)
	shards := shardOf[len(shardOf)-1] + 1

	s := tr.begin("trace.cursor_scan", req, parent)
	var sum float64
	for cur := col.Cursor(); cur.Next(); {
		for _, x := range cur.Block().Times {
			sum += x
		}
	}
	s.end()
	if sum <= 0 {
		return fmt.Errorf("cell %d: samples sum to %v", c.Index, sum)
	}

	maccs := make([]*analysis.MetricsAccumulator, shards)
	taccs := make([]*analysis.Table1Accumulator, shards)
	for i := range maccs {
		maccs[i] = analysis.NewMetricsAccumulator(c.App, c.LaggardThresholdSec)
		taccs[i] = analysis.NewTable1Accumulator(c.App, c.Alpha)
	}
	s = tr.begin("cursor+metrics", req, parent)
	for cur := col.Cursor(); cur.Next(); {
		b := cur.Block()
		maccs[shardOf[b.Trial]].ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
	}
	s.end()
	s = tr.begin("cursor+table1", req, parent)
	for cur := col.Cursor(); cur.Next(); {
		b := cur.Block()
		taccs[shardOf[b.Trial]].ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
	}
	s.end()

	s = tr.begin("analysis.state_codec", req, parent)
	mroot := analysis.NewMetricsAccumulator(c.App, c.LaggardThresholdSec)
	troot := analysis.NewTable1Accumulator(c.App, c.Alpha)
	var stateBytes int
	for i := range maccs {
		mstate, err1 := maccs[i].MarshalBinary()
		tstate, err2 := taccs[i].MarshalBinary()
		stateBytes += len(mstate) + len(tstate)
		m, t := new(analysis.MetricsAccumulator), new(analysis.Table1Accumulator)
		if err := errors.Join(err1, err2, m.UnmarshalBinary(mstate), t.UnmarshalBinary(tstate)); err != nil {
			s.end()
			return err
		}
		mroot.Merge(m)
		troot.Merge(t)
	}
	s.end()
	d.stateBytes.Add(int64(stateBytes))

	mstate, err1 := mroot.MarshalBinary()
	tstate, err2 := troot.MarshalBinary()
	key, err3 := engine.Spec{App: c.App, Geometry: c.Geometry, Alpha: c.Alpha,
		LaggardThresholdSec: c.LaggardThresholdSec, DLB: c.DLB}.Resolve()
	if err := errors.Join(err1, err2, err3); err != nil {
		return err
	}
	s = tr.begin("fleet.store_save", req, parent)
	err = d.replayStore.SaveCell(c, key.Key(), mstate, tstate)
	s.end()
	if err != nil {
		return err
	}

	m := mroot.Finalize()
	merged := serve.SweepRow{Index: c.Index, Metrics: m, Table1: troot.Finalize(), Recommendation: core.ClassifyMetrics(m)}
	if err := sameRow(row, merged, false); err != nil {
		return err
	}
	s = tr.begin("serve.encode", req, parent)
	err = encodeLikeServer(row)
	s.end()
	return err
}

func (d *fleetDeployment) guards() []string {
	st, err := getStats(context.Background(), d.e.client, d.coordURL)
	if err != nil {
		return []string{err.Error()}
	}
	f := st.Fleet
	if f == nil {
		return []string{"the coordinator reports no fleet"}
	}
	var out []string
	if f.LocalFallbacks != 0 || f.CellsFailed != 0 {
		out = append(out, fmt.Sprintf("%d local fallbacks and %d failed cells (want 0)", f.LocalFallbacks, f.CellsFailed))
	}
	if f.StoreHits != 0 {
		out = append(out, fmt.Sprintf("%d cells served from the store (want 0)", f.StoreHits))
	}
	if n := d.store.Len(); int64(n) != f.CellsDispatched {
		out = append(out, fmt.Sprintf("store holds %d records for %d cells", n, f.CellsDispatched))
	}
	if w := d.warnings.Load(); w != 0 {
		out = append(out, fmt.Sprintf("%d store warnings", w))
	}
	return out
}

func (d *fleetDeployment) counters() map[string]float64 {
	snap := d.fl.Snapshot()
	shards := min(fleetWorkers, d.e.geom.Trials)
	return map[string]float64{
		"shards_merged":     float64(snap.CellsMerged) * float64(shards),
		"shards_dispatched": float64(snap.ShardsDispatched),
		"speculations":      float64(snap.Speculations),
		"failovers":         float64(snap.Failovers),
		"state_bytes":       float64(d.stateBytes.Load()),
	}
}

// close stops the coordinator, then the workers.
func (d *fleetDeployment) close() {
	closeIdle(d.e.client)
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
}
