package main

import (
	"math"
	"testing"
)

// A run that caught interference in most of its windows must report the
// same numbers as one that caught none.
func TestQuietQuarterIgnoresDisturbedWindows(t *testing.T) {
	meter := func(p50s ...float64) *windowMeter {
		m := &windowMeter{}
		for _, p := range p50s {
			m.windows = append(m.windows, window{seconds: 1, lat: samples{p, p, p, p}, cpuMS: 4 * p, allocMB: 2})
		}
		m.windows = append(m.windows, window{seconds: 1}) // an empty window is skipped
		return m
	}
	calm := meter(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
	noisy := meter(1.7, 1.0, 1.7, 1.9, 1.8, 1.0, 2.0, 1.6, 1.0)
	if q := noisy.quiet(window.medianMS); len(q) != 3 || len(pooled(q).lat) != 12 {
		t.Fatalf("quiet quarter of 9 windows has %d windows, want 3 with 12 ops", len(q))
	}
	for name, cost := range map[string]func(window) float64{
		"latency": window.medianMS, "cpu": window.cpuMSPerOp, "alloc": window.allocMBPerOp, "rate": window.secondsPerOp,
	} {
		a, b := pooled(calm.quiet(cost)), pooled(noisy.quiet(cost))
		if math.Abs(cost(a)-cost(b)) > 1e-12 {
			t.Errorf("%s: %v without interference, %v with", name, cost(a), cost(b))
		}
	}
	q := pooled(noisy.quiet(window.cpuMSPerOp))
	if q.cpuMSPerOp() != 1 || q.allocMBPerOp() != 0.5 || q.secondsPerOp() != 0.25 {
		t.Errorf("quiet quarter = %+v, want 1 ms CPU, 0.5 MB and 0.25 s per op", q)
	}
}

// A window that paid for a cold job has an ordinary median latency; the
// CPU ranking must still leave it out.
func TestQuietQuarterRanksEachMetricByItsOwnCost(t *testing.T) {
	m := &windowMeter{windows: []window{
		{seconds: 1, lat: samples{1, 1}, cpuMS: 600}, // fastest reads, but a cold job ran beside them
		{seconds: 1, lat: samples{2, 2}, cpuMS: 4},
		{seconds: 1, lat: samples{3, 3}, cpuMS: 6},
		{seconds: 1, lat: samples{4, 4}, cpuMS: 8},
	}}
	if got := pooled(m.quiet(window.medianMS)).lat.median(); got != 1 {
		t.Errorf("latency ranking picked median %v, want 1", got)
	}
	if got := pooled(m.quiet(window.cpuMSPerOp)).cpuMSPerOp(); got != 2 {
		t.Errorf("CPU ranking reports %v ms per op, want 2", got)
	}
}

func TestWindowMeterMarksWindows(t *testing.T) {
	m := newWindowMeter()
	m.opDone(2)
	m.opDone(4)
	m.mark()
	m.opDone(10)
	m.mark()
	if len(m.windows) != 2 || m.windows[0].medianMS() != 3 || m.windows[1].medianMS() != 10 {
		t.Errorf("windows = %+v, want medians 3 and 10", m.windows)
	}
}

// serve-read reads its throughput from a stretch of its own and its
// tail from every window of the latency stretch.
func TestEndToEndReadsRateStretchAndWholeTailWhenAsked(t *testing.T) {
	lat := &windowMeter{}
	for i := 1; i <= 4; i++ { // the first window is the quiet quarter
		w := window{seconds: 1, cpuMS: 1, allocMB: 1}
		for j := 0; j < 500; j++ {
			w.lat.add(float64(i))
		}
		lat.windows = append(lat.windows, w)
	}
	rate := &windowMeter{windows: []window{{seconds: 1, lat: make(samples, 100)}}}
	fill := func(ph *phase) map[string]Metric {
		res := &WorkloadResult{Workload: wlRead, Metrics: map[string]Metric{}}
		if err := fillEndToEnd(res, &runContext{}, ph, samples{1}); err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	plain := fill(&phase{windows: lat})
	if m := plain["op_tail_ms"]; m.Value != 1 || m.N != 500 || m.Pct != 90 {
		t.Errorf("quiet-quarter tail = %+v, want 1 ms at p90 of 500", m)
	}
	if v := plain["ops_per_s"].Value; v != 500 {
		t.Errorf("ops_per_s = %v, want 500 from the latency windows", v)
	}
	split := fill(&phase{windows: lat, rate: rate, wholeTail: true})
	if m := split["op_tail_ms"]; m.Value != 4 || m.N != 2000 || m.Pct != 99 {
		t.Errorf("whole-stretch tail = %+v, want 4 ms at p99 of 2000", m)
	}
	if v := split["ops_per_s"].Value; v != 100 {
		t.Errorf("ops_per_s = %v, want 100 from the rate stretch", v)
	}
	if split["op_p50_ms"] != plain["op_p50_ms"] {
		t.Errorf("op_p50_ms moved: %+v vs %+v", split["op_p50_ms"], plain["op_p50_ms"])
	}
}
