package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for none).
// Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin starts a span and returns it; its ID is valid immediately, for
// children started before it ends.
func (t *tracer) begin(name string, req, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &openSpan{t: t, start: now, s: span{
		ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: now.Sub(t.epoch),
	}}
}

// id returns the span's ID; 0 for the nil span of an untraced run.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end records the span and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Now()
	o.s.End = now.Sub(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return now.Sub(o.start)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON document.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// interval is a half-open [lo, hi) stretch of trace time.
type interval struct{ lo, hi time.Duration }

// unionOf merges overlapping intervals into a sorted disjoint set.
func unionOf(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := []interval{s[0]}
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// length sums a disjoint interval set.
func length(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		d += iv.hi - iv.lo
	}
	return d
}

// overlap returns how much of the disjoint set a the disjoint set b
// covers.
func overlap(a, b []interval) time.Duration {
	var d time.Duration
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			d += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return d
}

// selfTimes returns, per request and span name, the wall time the
// name's spans cover minus the part their child spans cover: a layer's
// self time, with calls that overlap in time (cells or shards run in
// parallel) counted once.
func selfTimes(spans []span) map[int64]map[string]time.Duration {
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	type key struct {
		req  int64
		name string
	}
	own := map[key][]interval{}
	kids := map[key][]interval{}
	for _, s := range spans {
		k := key{s.Req, s.Name}
		own[k] = append(own[k], interval{s.Start, s.End})
		kids[k] = append(kids[k], children[s.ID]...)
	}
	out := map[int64]map[string]time.Duration{}
	for k, ivs := range own {
		u := unionOf(ivs)
		self := length(u) - overlap(u, unionOf(kids[k]))
		if out[k.req] == nil {
			out[k.req] = map[string]time.Duration{}
		}
		out[k.req][k.name] = self
	}
	return out
}
