package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// reqRecord is the client-side account of one closed-loop request.
type reqRecord struct {
	idx     int
	latency time.Duration
	// first is the time to the first result: the study reply, or the
	// first NDJSON row.
	first time.Duration
	// expected results (a study reply, or one row per sweep cell); ok
	// of them were correct and failed were not.
	expected, ok, failed int
	errs                 []string
	// guard lists path-guard violations: the request did not take the
	// path its workload was chosen for.
	guard []string
	// reply is the decoded answer, kept for sampled recomputation and
	// the traced replay.
	reply any
}

// succeeded reports whether every expected result was correct, which is
// the condition for the request's latency to count.
func (r *reqRecord) succeeded() bool { return r.failed == 0 && r.ok == r.expected }

// fail marks n more results failed with a reason.
func (r *reqRecord) fail(n int, format string, args ...any) {
	r.failed += n
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// wrong moves one correct result to failed, for an answer a later check
// found wrong.
func (r *reqRecord) wrong(err error) {
	if r.ok > 0 {
		r.ok--
	}
	r.fail(1, "wrong answer: %v", err)
}

// newClient returns the benchmark's HTTP client: keep-alive connections
// for up to conns concurrent requests, no overall timeout (requests are
// bounded by the run's context).
func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	tr.DisableCompression = true
	return &http.Client{Transport: tr}
}

// post sends v as a JSON POST request.
func post(ctx context.Context, c *http.Client, url string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.Do(req)
}

// postJSON posts v and returns the status and reply body.
func postJSON(ctx context.Context, c *http.Client, url string, v any) (int, []byte, error) {
	resp, err := post(ctx, c, url, v)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// postNDJSON posts v and hands every reply line to row as it arrives,
// with the time since the request was sent. A non-2xx reply is returned
// as an error carrying its status and body.
func postNDJSON(ctx context.Context, c *http.Client, url string, v any, row func(line []byte, at time.Duration)) (int, error) {
	start := time.Now()
	resp, err := post(ctx, c, url, v)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		row(sc.Bytes(), time.Since(start))
	}
	return resp.StatusCode, sc.Err()
}

// deployment is a started service under one workload.
type deployment interface {
	// do sends request idx and accounts for its results. rootID is the
	// request's root span (0 when untraced).
	do(ctx context.Context, idx int, rootID int64) *reqRecord
	// replay times, from the benchmark's side, the layer calls the
	// handler made for a finished request, and checks the reply against
	// them; it returns one error per wrong result.
	replay(rec *reqRecord, tr *tracer) []error
	// verify recomputes a request's results independently of the
	// service and returns one error per wrong result.
	verify(rec *reqRecord) []error
	// guards reads the service's public counters after the run and
	// returns every way the run left its workload's path.
	guards() []string
	// counters returns the service's cumulative counts that per-layer
	// metrics are derived from (for example evictions), keyed by name.
	counters() map[string]float64
	close()
}

// drive runs clients closed loops against d until dur has passed, each
// sending its next request only after the previous one completes.
// Request indexes start at first. With a tracer, every request gets a
// root span and is replayed after it completes. done, when non-nil, is
// called with the running count of completed requests.
func drive(ctx context.Context, d deployment, clients, first int, dur time.Duration, tr *tracer, done func(n int)) ([]*reqRecord, time.Duration, int) {
	var (
		next = atomic.Int64{}
		mu   sync.Mutex
		recs []*reqRecord
		wg   sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				idx := int(next.Add(1) - 1)
				root := tr.begin("request", int64(idx), 0)
				rec := d.do(ctx, idx, root.id())
				root.end()
				if tr != nil && rec.succeeded() {
					for _, err := range d.replay(rec, tr) {
						rec.wrong(err)
					}
				}
				mu.Lock()
				recs = append(recs, rec)
				n := len(recs)
				mu.Unlock()
				if done != nil {
					done(n)
				}
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start), int(next.Load())
}

// warmUp sends one request per client concurrently (indexes 0..n-1) and
// fails unless every one succeeds.
func warmUp(ctx context.Context, d deployment, n int) error {
	errs := make([]error, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			if rec := d.do(ctx, i, 0); !rec.succeeded() || len(rec.guard) > 0 {
				errs[i] = fmt.Errorf("warm-up request %d: %v %v", i, rec.errs, rec.guard)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return errors.Join(errs...)
}

// memProbe samples the live heap while the timed phase runs.
type memProbe struct {
	stop chan struct{}
	once sync.Once
	done chan struct{}
	peak uint64
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
)

// startMemProbe samples the live heap every interval until end is
// called. The live heap only changes when a GC cycle ends, so the probe
// then runs one more cycle itself: the last reading is the heap live at
// that moment, not as of whenever the last cycle happened to finish.
func startMemProbe(every time.Duration) *memProbe {
	m := &memProbe{stop: make(chan struct{}), done: make(chan struct{}), peak: readMetric(liveHeapMetric)}
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				runtime.GC()
				m.peak = max(m.peak, readMetric(liveHeapMetric))
				return
			case <-t.C:
				m.peak = max(m.peak, readMetric(liveHeapMetric))
			}
		}
	}()
	return m
}

// end stops sampling without waiting; it may be called more than once.
func (m *memProbe) end() { m.once.Do(func() { close(m.stop) }) }

// wait ends sampling and returns the peak live heap in bytes.
func (m *memProbe) wait() uint64 {
	m.end()
	<-m.done
	return m.peak
}

// closeIdle drops the benchmark's and the fleet's idle keep-alive
// connections before a teardown: a server's Shutdown waits up to five
// seconds for a connection a transport dialled but never sent a request
// on.
func closeIdle(c *http.Client) {
	c.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// listen serves h on a fresh loopback port until the returned stop is
// called; stop waits for the serving goroutine to end.
func listen(h interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = h.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = h.Shutdown(ctx) // a forced close after the timeout is fine at teardown
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}
