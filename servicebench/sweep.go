package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/serve"
	"earlybird/internal/workload"
)

// sweepPolicies is every sweep request's DLB axis: static and LeWI
// rebalancing, one cell each.
var sweepPolicies = []dlb.Spec{{Policy: dlb.PolicyStatic}, {Policy: dlb.PolicyLeWI}}

// sweepReply is a request's expanded cells and the rows that answered
// them, by cell index.
type sweepReply struct {
	cells []serve.SweepCell
	rows  []serve.SweepRow
}

// sweepRequest is request idx: one app at the request geometry over
// both policies.
func sweepRequest(e *env, idx int) serve.SweepRequest {
	return serve.SweepRequest{
		Apps:       []string{e.app(idx)},
		Geometries: []cluster.Config{e.geometry(idx)},
		DLBs:       sweepPolicies,
	}
}

// doSweep sends one sweep request and accounts for its rows: each cell
// must be answered exactly once, without an error, by a row for that
// cell. rowGuard reports path-guard violations of a correct row.
func doSweep(ctx context.Context, e *env, url string, idx int, rowGuard func(serve.SweepRow) string) *reqRecord {
	req := sweepRequest(e, idx)
	cells, err := req.Cells()
	rec := &reqRecord{idx: idx, expected: 2}
	if err != nil {
		rec.fail(rec.expected, "expanding the request: %v", err)
		return rec
	}
	rec.expected = len(cells)
	reply := &sweepReply{cells: cells, rows: make([]serve.SweepRow, len(cells))}
	seen := make([]bool, len(cells))
	start := time.Now()
	status, err := postNDJSON(ctx, e.client, url+"/v1/sweep", req, func(line []byte, at time.Duration) {
		if rec.first == 0 {
			rec.first = at
		}
		var row serve.SweepRow
		if err := json.Unmarshal(line, &row); err != nil {
			// The cell it answered stays unanswered and fails below.
			rec.errs = append(rec.errs, fmt.Sprintf("decoding a row: %v", err))
			return
		}
		if row.Index < 0 || row.Index >= len(cells) || seen[row.Index] {
			rec.wrong(fmt.Errorf("row for cell %d is a duplicate or out of range", row.Index))
			return
		}
		seen[row.Index] = true
		c := cells[row.Index]
		switch {
		case row.Err != "":
			rec.fail(1, "cell %d: %s", row.Index, row.Err)
		case row.App != c.App || row.Geometry != c.Geometry || row.DLB != c.DLB:
			rec.fail(1, "cell %d answered for %s %+v %s", row.Index, row.App, row.Geometry, row.DLB)
		default:
			if g := rowGuard(row); g != "" {
				rec.guard = append(rec.guard, fmt.Sprintf("request %d cell %d: %s", idx, row.Index, g))
			}
			reply.rows[row.Index] = row
			rec.ok++
		}
	})
	rec.latency = time.Since(start)
	if err != nil {
		// A transport error or non-2xx status fails every result not yet
		// counted as failed.
		rec.ok = 0
		rec.failed = 0
		rec.fail(rec.expected, "status %d: %v", status, err)
		return rec
	}
	missing := 0
	for _, s := range seen {
		if !s {
			missing++
		}
	}
	if missing > 0 {
		rec.fail(missing, "%d cells never answered", missing)
	}
	rec.reply = reply
	return rec
}

// coreOptions is the study a sweep cell runs.
func coreOptions(c serve.SweepCell) core.Options {
	return core.Options{App: c.App, Geometry: c.Geometry, Policy: core.PolicySpec{
		DLB: c.DLB, Alpha: c.Alpha, LaggardThresholdSec: c.LaggardThresholdSec,
	}}
}

// sameRow compares a row with an expected one on the fields federated
// execution holds bit-identical to single-node execution: every metric
// except the sketch-estimated IQRs, the Table 1 row and the verdict.
// exact also compares the IQRs, for rows computed by the same code path.
func sameRow(got, want serve.SweepRow, exact bool) error {
	g, w := got.Metrics, want.Metrics
	if !exact {
		g.IQRMeanSec, g.IQRMaxSec = 0, 0
		w.IQRMeanSec, w.IQRMaxSec = 0, 0
	}
	switch {
	case g != w:
		return fmt.Errorf("cell %d metrics differ:\n row  %+v\n want %+v", got.Index, got.Metrics, want.Metrics)
	case got.Table1 != want.Table1:
		return fmt.Errorf("cell %d Table 1 differs: %+v vs %+v", got.Index, got.Table1, want.Table1)
	case got.Recommendation != want.Recommendation:
		return fmt.Errorf("cell %d recommendation %q, want %q", got.Index, got.Recommendation, want.Recommendation)
	}
	return nil
}

var sweepStream = &workloadSpec{
	name:          "sweep-stream",
	why:           "POST /v1/sweep above the cache bound: every cell takes the bounded-memory streaming study, half under LeWI, bypassing exact analysis and the caches",
	clients:       1,
	fixedRequests: 100,
	layers: []layer{
		{metric: "core.stream_study_ms", unit: "ms", blocking: true, fromSpans: spanMS("core.stream_study")},
		{metric: "serve.encode_ms", unit: "ms", blocking: true, fromSpans: spanMS("serve.encode")},
		{metric: "cluster.stream_fill_ms.static", unit: "ms", fromSpans: spanMS("cluster.stream_fill.static")},
		{metric: "cluster.stream_fill_ms.lewi", unit: "ms", fromSpans: spanMS("cluster.stream_fill.lewi")},
		{metric: "dlb.lewi_fill_ratio", unit: "ratio", fromSpans: func(s map[string]float64) float64 {
			return s["cluster.stream_fill.lewi"] / s["cluster.stream_fill.static"]
		}},
		{metric: "analysis.metrics_ingest_ms", unit: "ms", fromSpans: ingest("metrics")},
		{metric: "normality.table1_ingest_ms", unit: "ms", fromSpans: ingest("table1")},
	},
	start: startSweepStream,
}

// ingest derives an accumulator's ingest time: the fills with only that
// accumulator observing, minus the bare fills, over both policies.
func ingest(acc string) func(map[string]float64) float64 {
	return func(s map[string]float64) float64 {
		var d float64
		for _, p := range sweepPolicies {
			d += s["fill+"+acc+"."+p.Name()] - s["cluster.stream_fill."+p.Name()]
		}
		return d
	}
}

// streamDeployment is one server whose sweep cache bound sits below the
// request geometry, so every cell streams.
type streamDeployment struct {
	e    *env
	url  string
	stop func()
}

func startSweepStream(ctx context.Context, e *env) (deployment, error) {
	srv := serve.New(serve.Options{Workers: e.workers, MaxCachedSweepSamples: e.geom.Samples() - 1})
	url, stop, err := listen(srv)
	if err != nil {
		return nil, err
	}
	d := &streamDeployment{e: e, url: url, stop: stop}
	if err := warmUp(ctx, d, e.clients); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *streamDeployment) do(ctx context.Context, idx int, _ int64) *reqRecord {
	return doSweep(ctx, d.e, d.url, idx, func(row serve.SweepRow) string {
		if !row.Streamed {
			return "row not streamed"
		}
		return ""
	})
}

// streamRow is the row the service computes for a cell, computed
// directly through core.StreamStudy.
func streamRow(c serve.SweepCell) (serve.SweepRow, error) {
	res, err := core.StreamStudy(coreOptions(c))
	if err != nil {
		return serve.SweepRow{}, err
	}
	return serve.SweepRow{Index: c.Index, Metrics: res.Metrics, Table1: res.Table1,
		Recommendation: core.ClassifyMetrics(res.Metrics)}, nil
}

func (d *streamDeployment) verify(rec *reqRecord) []error {
	r := rec.reply.(*sweepReply)
	var errs []error
	for i, c := range r.cells {
		want, err := streamRow(c)
		if err == nil {
			err = sameRow(r.rows[i], want, true)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", rec.idx, err))
		}
	}
	return errs
}

// replay times, per cell, the streaming study the handler runs, its
// fill alone under the cell's policy, the fill with each accumulator
// alone observing, and the row encoding; the study's result is checked
// against the row.
func (d *streamDeployment) replay(rec *reqRecord, tr *tracer) []error {
	r := rec.reply.(*sweepReply)
	req := int64(rec.idx)
	parent := tr.begin("replay", req, 0)
	defer parent.end()
	var errs []error
	for i, c := range r.cells {
		s := tr.begin("core.stream_study", req, parent.id())
		want, err := streamRow(c)
		s.end()
		if err == nil {
			err = sameRow(r.rows[i], want, true)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", rec.idx, err))
			continue
		}
		model, err := workload.ByName(c.App)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		fills := []struct {
			span string
			obs  func() cluster.BlockObserver
		}{
			{"cluster.stream_fill." + c.DLB.Name(), nil},
			{"fill+metrics." + c.DLB.Name(), func() cluster.BlockObserver {
				return analysis.NewMetricsAccumulator(c.App, c.LaggardThresholdSec)
			}},
			{"fill+table1." + c.DLB.Name(), func() cluster.BlockObserver {
				return analysis.NewTable1Accumulator(c.App, c.Alpha)
			}},
		}
		for _, f := range fills {
			s := tr.begin(f.span, req, parent.id())
			_, err := cluster.RunStreamDLB(model, c.Geometry, c.DLB, 0, nil, f.obs)
			s.end()
			if err != nil {
				errs = append(errs, err)
			}
		}
		s = tr.begin("serve.encode", req, parent.id())
		if err := encodeLikeServer(r.rows[i]); err != nil {
			errs = append(errs, err)
		}
		s.end()
	}
	return errs
}

func (d *streamDeployment) guards() []string {
	st, err := getStats(context.Background(), d.e.client, d.url)
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	if st.Engine.NestedViews != 0 {
		out = append(out, fmt.Sprintf("%d nested dataset views built (want 0)", st.Engine.NestedViews))
	}
	if st.Engine.Executions != 0 {
		out = append(out, fmt.Sprintf("%d datasets generated through the engine cache (want 0)", st.Engine.Executions))
	}
	return out
}

func (d *streamDeployment) counters() map[string]float64 { return nil }

func (d *streamDeployment) close() {
	closeIdle(d.e.client)
	d.stop()
}
