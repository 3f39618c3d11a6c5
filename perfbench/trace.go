package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer
// of optsched: name, start, end, parent span and a request ID shared by
// the spans of one request. Spans stay in memory and are written once,
// when the run ends. A nil or disabled tracer records nothing, so the
// untraced run pays one branch per boundary.
type tracer struct {
	on   bool
	t0   time.Time
	ids  atomic.Int64
	reqs atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span; the zero value (from a disabled tracer) is
// inert.
type spanRef struct {
	t      *tracer
	name   string
	id     int64
	parent int64
	req    int64
	start  time.Time
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), counts: map[string]int64{}}
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on }

// newReq allocates a request ID; 0 when tracing is off.
func (t *tracer) newReq() int64 {
	if !t.enabled() {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(name string, parent spanRef, req int64) spanRef {
	if !t.enabled() {
		return spanRef{}
	}
	if req == 0 {
		req = parent.req
	}
	return spanRef{t: t, name: name, id: t.ids.Add(1), parent: parent.id, req: req, start: time.Now()}
}

// end closes the span and records it.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		Name: s.name, ID: s.id, Parent: s.parent, Req: s.req,
		Start: int64(s.start.Sub(s.t.t0)), End: int64(end.Sub(s.t.t0)),
	})
	s.t.mu.Unlock()
}

// count adds n to a boundary counter.
func (t *tracer) count(name string, n int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part of its interval that its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

func summarize(spans []span) []spanSummary {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		durs       []float64
		total, own int64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.durs = append(a.durs, float64(d)/1e9)
		a.total += d
		a.own += d - covered(s, children[s.ID])
	}
	out := make([]spanSummary, 0, len(by))
	for name, a := range by {
		out = append(out, spanSummary{
			Name: name, Count: len(a.durs),
			TotalS: float64(a.total) / 1e9, SelfS: float64(a.own) / 1e9,
			MedianS: median(a.durs),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers (children of one span may overlap when they ran on
// different goroutines).
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return sum + curHi - curLo
}

// write stores every span, the per-name summary and the counters as one
// JSON document.
func (t *tracer) write(path string, header map[string]any) ([]spanSummary, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := summarize(t.spans)
	doc := map[string]any{
		"header":  header,
		"summary": sum,
		"counts":  t.counts,
		"spans":   t.spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return sum, nil
}
