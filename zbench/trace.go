package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// maxKeptSpans caps the spans kept for the trace file; later spans still
// count toward the self-time aggregates.
const maxKeptSpans = 50_000

// tracer records spans at the benchmark's own call boundaries into the
// layers. A nil *tracer records nothing, so untraced rounds pay one
// branch per boundary. One tracer serves one goroutine (lane); fork gives
// another goroutine its own lane and join folds it back.
type tracer struct {
	t0     time.Time
	lane   int
	nextID *atomic.Int64 // shared by all lanes
	root   int64         // parent of a forked lane's top-level spans
	spans  *[]spanRec
	open   []openSpan
	agg    map[string]*spanAgg
	drops  int
}

type spanRec struct {
	Name       string
	Start, End time.Duration
	ID, Parent int64
	Req        int64
	Lane       int
}

type openSpan struct {
	rec   spanRec
	child time.Duration
}

// spanAgg sums one span name: calls, inclusive time and self time (the
// span's duration minus the part its child spans cover).
type spanAgg struct {
	Calls      int64
	Total, Sum time.Duration
}

func newTracer() *tracer {
	spans := make([]spanRec, 0, 1024)
	return &tracer{t0: time.Now(), nextID: new(atomic.Int64), spans: &spans, agg: map[string]*spanAgg{}}
}

// begin opens a span; req ties together the spans of one request (0 =
// none). Spans nest: the innermost open span is the parent.
func (t *tracer) begin(name string, req int64) {
	if t == nil {
		return
	}
	r := spanRec{Name: name, Start: time.Since(t.t0), ID: t.nextID.Add(1), Parent: t.root, Req: req, Lane: t.lane}
	if n := len(t.open); n > 0 {
		r.Parent = t.open[n-1].rec.ID
		if req == 0 {
			r.Req = t.open[n-1].rec.Req
		}
	}
	t.open = append(t.open, openSpan{rec: r})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	o.rec.End = time.Since(t.t0)
	d := o.rec.End - o.rec.Start
	if n > 0 {
		t.open[n-1].child += d
	}
	a := t.agg[o.rec.Name]
	if a == nil {
		a = &spanAgg{}
		t.agg[o.rec.Name] = a
	}
	a.Calls++
	a.Total += d
	a.Sum += d - o.child
	if len(*t.spans) < maxKeptSpans {
		*t.spans = append(*t.spans, o.rec)
	} else {
		t.drops++
	}
}

// fork returns a tracer for another goroutine: same time origin and id
// sequence, its spans parented to t's innermost open span. The caller
// joins it once that goroutine has ended.
func (t *tracer) fork(lane int) *tracer {
	if t == nil {
		return nil
	}
	spans := make([]spanRec, 0, 1024)
	c := &tracer{t0: t.t0, lane: lane, nextID: t.nextID, spans: &spans, agg: map[string]*spanAgg{}}
	if n := len(t.open); n > 0 {
		c.root = t.open[n-1].rec.ID
	}
	return c
}

// join folds a forked tracer's spans and aggregates into t.
func (t *tracer) join(c *tracer) {
	if t == nil || c == nil {
		return
	}
	for _, r := range *c.spans {
		if len(*t.spans) < maxKeptSpans {
			*t.spans = append(*t.spans, r)
		} else {
			t.drops++
		}
	}
	t.drops += c.drops
	for name, a := range c.agg {
		b := t.agg[name]
		if b == nil {
			b = &spanAgg{}
			t.agg[name] = b
		}
		b.Calls += a.Calls
		b.Total += a.Total
		b.Sum += a.Sum
	}
}

// selfTime is the summed self time of a span name.
func (t *tracer) selfTime(name string) time.Duration {
	if a := t.agg[name]; a != nil {
		return a.Sum
	}
	return 0
}

// names lists the recorded span names in order.
func (t *tracer) names() []string {
	ns := make([]string, 0, len(t.agg))
	for n := range t.agg {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// writeChrome writes the kept spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps), with the host description and the
// ledger in otherData.
func (t *tracer) writeChrome(path string, other map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(*t.spans))
	for _, r := range *t.spans {
		evs = append(evs, event{
			Name: r.Name, Cat: "zbench", Ph: "X",
			Ts:  float64(r.Start.Nanoseconds()) / 1e3,
			Dur: float64((r.End - r.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: r.Lane,
			Args: map[string]any{"id": r.ID, "parent": r.Parent, "req": r.Req},
		})
	}
	other["dropped_spans"] = t.drops
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ns",
		"otherData":       other,
	}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
