package main

import (
	"testing"
	"time"
)

func span(id, parent int, layer string, start, end int64) Span {
	return Span{ID: id, Op: 1, Parent: parent, Layer: layer, Name: layer, Start: start, End: end}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "workload", 0, 100),
		span(2, 1, "service", 10, 30),
		span(3, 2, "sketch", 15, 20),
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 80, 2: 15, 3: 5} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
	// Only direct children are subtracted, so the rows add up to the root.
	var sum time.Duration
	for _, d := range layerSelf(spans) {
		sum += d
	}
	if sum != 100 {
		t.Errorf("layer self times sum to %d, want the root's 100", sum)
	}
}

func TestSelfTimeOverlappingAndProtrudingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "workload", 0, 100),
		span(2, 1, "a", 10, 50),
		span(3, 1, "b", 30, 70),  // overlaps a: the union covers 10..70
		span(4, 1, "c", 40, 45),  // inside the union: adds nothing
		span(5, 1, "d", 90, 120), // sticks out: only 90..100 counts
	}
	if got := selfTimes(spans)[1]; got != 100-60-10 {
		t.Errorf("parent self = %d, want 30", got)
	}
}

func TestNilTracerStillTimes(t *testing.T) {
	var tr *Tracer
	if tr.newOp() != 0 {
		t.Error("nil tracer allocated an op id")
	}
	d := tr.call(0, 0, "x", "y", func() { time.Sleep(2 * time.Millisecond) })
	if d < 2*time.Millisecond {
		t.Errorf("nil tracer timed %v for a 2 ms call", d)
	}
	if tr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
}

func TestTracerRecordsParentAndCounts(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	root := tr.start(op, 0, "workload", "round")
	tr.call(op, root.id(), "graph", "ReadBinary", func() {})
	root.end(map[string]float64{"bytes": 7})
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != op {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Counts["bytes"] != 7 || spans[0].End < spans[1].End {
		t.Errorf("root span = %+v", spans[0])
	}
	if got := spanDurations(spans, "graph", "ReadBinary"); len(got) != 1 {
		t.Errorf("spanDurations found %d spans, want 1", len(got))
	}
}
