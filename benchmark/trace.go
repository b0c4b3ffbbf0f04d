package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions (spans inside the program are a later
// issue). Spans of one operation share Op; Parent is the span that caused
// this one (0 for an operation's root). Start and End are nanoseconds
// since the tracer was created.
type Span struct {
	ID     int                `json:"id"`
	Op     int                `json:"op"`
	Parent int                `json:"parent"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// tracing-off state: every method is a no-op that still times the call,
// so workloads are written once and measured both ways.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	ops   int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// newOp allocates an operation id.
func (t *Tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// activeSpan is a span that has started and not yet ended.
type activeSpan struct {
	t     *Tracer
	span  Span
	start time.Time
}

// start opens a span. With tracing off it only notes the start time.
func (t *Tracer) start(op, parent int, layer, name string) *activeSpan {
	a := &activeSpan{t: t, start: time.Now()}
	if t != nil {
		t.mu.Lock()
		a.span = Span{ID: len(t.spans) + 1, Op: op, Parent: parent, Layer: layer, Name: name}
		// Reserve the slot now so ids are dense and children can name
		// their parent before it ends.
		t.spans = append(t.spans, a.span)
		t.mu.Unlock()
	}
	return a
}

// id is the span's id for children to name as their parent (0 untraced).
func (a *activeSpan) id() int { return a.span.ID }

// end closes the span and returns its duration. counts are recorded at
// the same boundary the time is, so ratios are measured where the work
// happens.
func (a *activeSpan) end(counts map[string]float64) time.Duration {
	now := time.Now()
	d := now.Sub(a.start)
	if a.t != nil {
		a.span.Start = a.start.Sub(a.t.t0).Nanoseconds()
		a.span.End = now.Sub(a.t.t0).Nanoseconds()
		a.span.Counts = counts
		a.t.mu.Lock()
		a.t.spans[a.span.ID-1] = a.span
		a.t.mu.Unlock()
	}
	return d
}

// call times fn as one span.
func (t *Tracer) call(op, parent int, layer, name string, fn func()) time.Duration {
	a := t.start(op, parent, layer, name)
	fn()
	return a.end(nil)
}

func (t *Tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (parallel calls) and may stick out of the parent (clock skew
// between goroutines); the covered part is the union of the children's
// intervals clipped to the parent's.
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerSelf sums self time by layer: the ledger whose rows add up to the
// traced wall time of the root spans.
func layerSelf(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// spanDurations returns the durations, in milliseconds, of every span of
// the given layer and name.
func spanDurations(spans []Span, layer, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out.addDur(s.dur())
		}
	}
	return out
}

// writeTrace dumps the spans as one JSON document.
func writeTrace(path string, spans []Span) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
