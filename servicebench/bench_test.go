package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/serve"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 50}, // too few for a tail: the median
		{19, 50},
		{20, 50},
		{40, 75},
		{100, 90},
		{150, 100 * 140.0 / 150},
		{200, 95},
		{1000, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n < 20 {
			continue
		}
		if b := beyond(got, c.n); b != minBeyondTail {
			t.Errorf("n=%d: p%v leaves %d samples beyond, want %d", c.n, got, b, minBeyondTail)
		}
		// Any higher percentile leaves fewer than ten beyond.
		if b := beyond(got+0.01, c.n); b >= minBeyondTail {
			t.Errorf("n=%d: p%v also leaves %d beyond", c.n, got+0.01, b)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimesCountOverlapOnceAndSubtractChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// Two parallel dispatches of one request, 0-10 and 2-12 ms, each
		// with a child round trip covering 1-9 and 3-11 ms.
		{ID: 1, Req: 7, Name: "dispatch", Start: 0, End: 10 * ms},
		{ID: 2, Req: 7, Name: "dispatch", Start: 2 * ms, End: 12 * ms},
		{ID: 3, Parent: 1, Req: 7, Name: "shard", Start: 1 * ms, End: 9 * ms},
		{ID: 4, Parent: 2, Req: 7, Name: "shard", Start: 3 * ms, End: 11 * ms},
		// Sequential calls of another request add up.
		{ID: 5, Req: 8, Name: "encode", Start: 0, End: 1 * ms},
		{ID: 6, Req: 8, Name: "encode", Start: 5 * ms, End: 7 * ms},
	}
	self := selfTimes(spans)
	if got := self[7]["dispatch"]; got != 2*ms {
		t.Errorf("dispatch self = %v, want 2ms (0-1 and 11-12)", got)
	}
	if got := self[7]["shard"]; got != 10*ms {
		t.Errorf("shard self = %v, want 10ms (1-11)", got)
	}
	if got := self[8]["encode"]; got != 3*ms {
		t.Errorf("encode self = %v, want 3ms", got)
	}
}

// tinyGeometry keeps recomputation in the failure tests instant.
func tinyGeometry() cluster.Config {
	return cluster.Config{Trials: 2, Ranks: 2, Iterations: 8, Threads: 48, Seed: 1}
}

func testEnv(geom cluster.Config) *env {
	return &env{geom: geom, base: 1000, workers: 2, clients: 1, warmDatasets: 2, client: newClient(1)}
}

// fake answers every request with handler h.
func fake(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestFailureAccounting(t *testing.T) {
	ctx := context.Background()
	e := testEnv(tinyGeometry())

	t.Run("study 5xx", func(t *testing.T) {
		url := fake(t, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
		})
		rec := (&studyDeployment{e: e, url: url}).do(ctx, 0, 0)
		if rec.failed != 1 || rec.ok != 0 || rec.succeeded() {
			t.Errorf("5xx study: failed %d ok %d succeeded %v, want 1 0 false", rec.failed, rec.ok, rec.succeeded())
		}
	})

	t.Run("sweep 5xx", func(t *testing.T) {
		url := fake(t, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "injected", http.StatusServiceUnavailable)
		})
		rec := (&streamDeployment{e: e, url: url}).do(ctx, 0, 0)
		if rec.failed != 2 || rec.ok != 0 {
			t.Errorf("5xx sweep: failed %d ok %d, want 2 0", rec.failed, rec.ok)
		}
	})

	// A sweep server that answers the static cell with an error row and
	// the LeWI cell with a row whose metrics are wrong.
	sweepURL := fake(t, func(w http.ResponseWriter, r *http.Request) {
		var req serve.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cells, _ := req.Cells()
		enc := json.NewEncoder(w)
		for _, c := range cells {
			row := serve.SweepRow{Index: c.Index, App: c.App, Geometry: c.Geometry, DLB: c.DLB, Streamed: true}
			if c.DLB.IsStatic() {
				row.Err = "injected"
			} else {
				row.Metrics.MeanMedianSec = 1 // wrong
			}
			_ = enc.Encode(row)
		}
	})

	t.Run("row error and wrong row", func(t *testing.T) {
		d := &streamDeployment{e: e, url: sweepURL}
		rec := d.do(ctx, 0, 0)
		if rec.failed != 1 || rec.ok != 1 {
			t.Fatalf("row error: failed %d ok %d, want 1 1", rec.failed, rec.ok)
		}
		// The other row is well-formed; recomputing it exposes it.
		rec.failed, rec.ok = 0, 2
		rec.reply.(*sweepReply).rows[0] = rec.reply.(*sweepReply).rows[1]
		rec.reply.(*sweepReply).rows[0].Index = 0
		for _, err := range d.verify(rec) {
			rec.wrong(err)
		}
		if rec.failed != 2 || rec.ok != 0 {
			t.Errorf("wrong rows: failed %d ok %d, want 2 0", rec.failed, rec.ok)
		}
	})

	t.Run("wrong study answer", func(t *testing.T) {
		url := fake(t, func(w http.ResponseWriter, r *http.Request) {
			var spec serve.StudySpec
			_ = json.NewDecoder(r.Body).Decode(&spec)
			_ = json.NewEncoder(w).Encode(serve.StudyResponse{
				App: spec.App, Geometry: *spec.Geometry, Source: serve.SourceExecuted,
			})
		})
		d := &studyDeployment{e: e, url: url}
		rec := d.do(ctx, 0, 0)
		if !rec.succeeded() {
			t.Fatalf("well-formed reply not accepted: %v", rec.errs)
		}
		for _, err := range d.verify(rec) {
			rec.wrong(err)
		}
		if rec.failed != 1 || rec.ok != 0 {
			t.Errorf("wrong answer: failed %d ok %d, want 1 0", rec.failed, rec.ok)
		}
	})

	t.Run("failures make the run incorrect", func(t *testing.T) {
		var rr runRecord
		var res result
		account([]*reqRecord{{expected: 2, ok: 2}, {expected: 2, ok: 1, failed: 1}}, &rr, &res)
		finish(&rr, &res)
		if res.Correct || res.Attempted != 4 || res.Failed != 1 || rr.FailedShare != 0.25 {
			t.Errorf("got correct %v attempted %d failed %d share %v", res.Correct, res.Attempted, res.Failed, rr.FailedShare)
		}
	})
}

// benchmarkSpec reads the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeAllWorkloads runs every workload untraced and traced at quick
// geometry for a moment each, and checks that each run prints exactly
// the metrics BENCHMARK.json declares, with their units.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service six times")
	}
	spec := benchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the program's %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig()
			cfg.workload = w
			cfg.seed = 5
			cfg.duration = 600 * time.Millisecond
			cfg.traced = traced
			cfg.geom = cluster.SmallConfig()
			cfg.setups = 2
			cfg.checks = 2
			cfg.outDir = t.TempDir()
			var out bytes.Buffer
			res, err := runBenchmark(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct %v attempted %d failed %d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s is %+v (present %v), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if !traced && res.Metrics["latency_p50_ms"].Value <= 0 {
				t.Errorf("%s: latency_p50_ms %v", w.name, res.Metrics["latency_p50_ms"].Value)
			}
			if traced && !strings.Contains(out.String(), `"trace_report"`) {
				t.Errorf("%s: traced run printed no report", w.name)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "study-cold", "--trace", "2"},
		{"--workload", "study-cold", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}
