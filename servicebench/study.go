package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/serve"
	"earlybird/internal/workload"
)

var studyCold = &workloadSpec{
	name:          "study-cold",
	why:           "cold POST /v1/study at paper geometry: every request misses both caches, so exact analysis dominates, as for a user's first study",
	clients:       2,
	fixedRequests: 140,
	layers: []layer{
		{metric: "engine.dataset_ms", unit: "ms", blocking: true, fromSpans: spanMS("engine.dataset")},
		{metric: "engine.evictions", unit: "count", fromCounters: func(d map[string]float64, n int) float64 {
			return d["evictions"] / float64(n)
		}},
		{metric: "analysis.metrics_ms", unit: "ms", blocking: true, fromSpans: spanMS("analysis.metrics")},
		{metric: "normality.table1_ms", unit: "ms", blocking: true, fromSpans: spanMS("normality.table1")},
		{metric: "core.feasibility_ms", unit: "ms", blocking: true, fromSpans: spanMS("core.feasibility")},
		{metric: "serve.encode_ms", unit: "ms", blocking: true, fromSpans: spanMS("serve.encode")},
	},
	start: startStudyCold,
}

// studyDeployment is one server answering cold /v1/study requests.
type studyDeployment struct {
	e    *env
	srv  *serve.Server
	url  string
	stop func()
	// scratch is the replay's own engine: every replayed dataset misses
	// it, as every request misses the server's.
	scratch *engine.Engine
}

// studyReply is a request's spec and its decoded reply.
type studyReply struct {
	spec  serve.StudySpec
	reply serve.StudyResponse
}

func startStudyCold(ctx context.Context, e *env) (deployment, error) {
	srv := serve.New(serve.Options{Workers: e.workers})
	url, stop, err := listen(srv)
	if err != nil {
		return nil, err
	}
	d := &studyDeployment{e: e, srv: srv, url: url, stop: stop, scratch: engine.New(e.workers)}
	d.scratch.SetMaxDatasets(e.clients)

	// Fill the dataset cache to its bound with datasets no request asks
	// for, so every timed request evicts one.
	eng := srv.Engine()
	for k := 0; eng.CachedDatasets() < e.warmDatasets; k++ {
		model, err := workload.ByName(apps[k%len(apps)])
		if err != nil {
			d.close()
			return nil, err
		}
		g := e.geom
		g.Seed = e.warmSeed(k)
		if _, _, err := eng.ColumnarDLB(model, g, dlb.Spec{}); err != nil {
			d.close()
			return nil, fmt.Errorf("warming the dataset cache: %w", err)
		}
	}
	if err := warmUp(ctx, d, e.clients); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *studyDeployment) do(ctx context.Context, idx int, _ int64) *reqRecord {
	g := d.e.geometry(idx)
	spec := serve.StudySpec{App: d.e.app(idx), Geometry: &g}
	rec := &reqRecord{idx: idx, expected: 1}
	start := time.Now()
	status, body, err := postJSON(ctx, d.e.client, d.url+"/v1/study", spec)
	rec.latency = time.Since(start)
	rec.first = rec.latency
	switch {
	case err != nil:
		rec.fail(1, "transport: %v", err)
		return rec
	case status != 200:
		rec.fail(1, "status %d: %s", status, bytes.TrimSpace(body))
		return rec
	}
	var reply serve.StudyResponse
	if err := json.Unmarshal(body, &reply); err != nil {
		rec.fail(1, "decoding the reply: %v", err)
		return rec
	}
	if reply.App != spec.App || reply.Geometry != g {
		rec.fail(1, "reply is for %s %+v, asked %s %+v", reply.App, reply.Geometry, spec.App, g)
		return rec
	}
	if reply.Source != serve.SourceExecuted || reply.DatasetCacheHit {
		rec.guard = append(rec.guard, fmt.Sprintf("request %d: source %q, dataset_cache_hit %v (want executed, false)",
			idx, reply.Source, reply.DatasetCacheHit))
	}
	rec.ok = 1
	rec.reply = &studyReply{spec: spec, reply: reply}
	return rec
}

// resolvedSpec is the engine spec the server resolves a request to (the
// server's default policy is static).
func resolvedSpec(spec serve.StudySpec) (engine.Spec, error) {
	return engine.Spec{App: spec.App, Geometry: *spec.Geometry}.Resolve()
}

// sameStudy compares a reply with an independently computed result on
// every analysed field, bit for bit through their JSON renderings.
func sameStudy(reply serve.StudyResponse, m, t1, a any) error {
	pairs := []struct {
		name      string
		got, want any
	}{{"metrics", reply.Metrics, m}, {"table1", reply.Table1, t1}, {"assessment", reply.Assessment, a}}
	for _, p := range pairs {
		got, err1 := json.Marshal(p.got)
		want, err2 := json.Marshal(p.want)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s differs:\n reply %s\n fresh %s", p.name, got, want)
		}
	}
	return nil
}

func (d *studyDeployment) verify(rec *reqRecord) []error {
	r := rec.reply.(*studyReply)
	sp, err := resolvedSpec(r.spec)
	if err != nil {
		return []error{err}
	}
	res, err := engine.New(1).RunSpec(sp)
	if err != nil {
		return []error{err}
	}
	if err := sameStudy(r.reply, res.Metrics, res.Table1, res.Assessment); err != nil {
		return []error{fmt.Errorf("request %d: %w", rec.idx, err)}
	}
	return nil
}

// replay times the calls the handler makes for one cold study — the
// engine's dataset generation on a miss, then the study's three
// analyses and the reply encoding — and checks the reply against them.
func (d *studyDeployment) replay(rec *reqRecord, tr *tracer) []error {
	r := rec.reply.(*studyReply)
	sp, err := resolvedSpec(r.spec)
	if err != nil {
		return []error{err}
	}
	req := int64(rec.idx)
	parent := tr.begin("replay", req, 0)
	defer parent.end()

	s := tr.begin("engine.dataset", req, parent.id())
	ds, hit, err := d.scratch.DatasetDLB(sp.Model, sp.Geometry, sp.DLB)
	s.end()
	if err != nil {
		return []error{err}
	}
	if hit {
		return []error{fmt.Errorf("request %d: replay dataset was cached", rec.idx)}
	}
	study, err := core.FromDatasetWith(ds, core.Options{Policy: core.PolicySpec{
		DLB: sp.DLB, Alpha: sp.Alpha, LaggardThresholdSec: sp.LaggardThresholdSec,
	}})
	if err != nil {
		return []error{err}
	}
	s = tr.begin("analysis.metrics", req, parent.id())
	m := study.Metrics()
	s.end()
	s = tr.begin("normality.table1", req, parent.id())
	t1 := study.Table1()
	s.end()
	s = tr.begin("core.feasibility", req, parent.id())
	a := study.Feasibility(sp.BytesPerPartition, sp.Fabric, sp.BinTimeoutSec)
	s.end()
	s = tr.begin("serve.encode", req, parent.id())
	err = encodeLikeServer(r.reply)
	s.end()
	if err != nil {
		return []error{err}
	}
	if err := sameStudy(r.reply, m, t1, a); err != nil {
		return []error{fmt.Errorf("request %d: %w", rec.idx, err)}
	}
	return nil
}

func (d *studyDeployment) guards() []string {
	st, err := getStats(context.Background(), d.e.client, d.url)
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	if st.Study.ResultCacheHits != 0 || st.Study.Coalesced != 0 {
		out = append(out, fmt.Sprintf("result cache served %d hits and %d coalesced joins (want 0)",
			st.Study.ResultCacheHits, st.Study.Coalesced))
	}
	if st.Engine.EvictedDatasets == 0 {
		out = append(out, "the dataset cache never evicted")
	}
	return out
}

func (d *studyDeployment) counters() map[string]float64 {
	return map[string]float64{"evictions": float64(d.srv.Engine().EvictedDatasets())}
}

func (d *studyDeployment) close() {
	closeIdle(d.e.client)
	d.stop()
}
