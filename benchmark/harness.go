package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run sets its workload up several times and reports the median as
// setup_s: at least minSetupReps times, and — because a set-up of a few
// milliseconds is mostly jitter — again until setupBudget is spent or
// maxSetupReps is reached.
const (
	minSetupReps = 5
	maxSetupReps = 15
	setupBudget  = 3 * time.Second
)

// phase is what one timed stretch of a workload produced.
type phase struct {
	attempted int                // ops attempted
	failed    int                // ops that errored, timed out or failed the oracle
	extra     map[string]float64 // workload-specific end-to-end metrics
	windows   *windowMeter       // the stretch cut into rounds or seconds
	rate      *windowMeter       // the stretch ops_per_s and the per-op costs are read from, when not windows
	wholeTail bool               // read op_tail_ms from every window, not the quiet quarter
	failures  []string           // the first few failures, for the report
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *phase) set(name string, v float64) {
	if p.extra == nil {
		p.extra = make(map[string]float64)
	}
	p.extra[name] = v
}

// workload is one of the four scenarios. The harness calls gen once,
// setup/teardown several times (keeping the last set-up), run once
// (twice when tracing: off, then on), verify once.
type workload interface {
	// gen writes the workload's inputs under rc.dir from rc.seed.
	gen(rc *runContext) error
	// setup brings the system to the point of the first timed op: loads,
	// builds and warm-up. Memory checkpoints it places (rc.mem) are not
	// charged to setup_s; the harness places one more after the last set-up.
	setup(rc *runContext) error
	teardown()
	// run drives the workload for about d and checks every answer it
	// can check cheaply; tr is nil with tracing off.
	run(rc *runContext, d time.Duration, tr *Tracer) (*phase, error)
	// verify runs the oracles too slow for the timed phase, recording
	// mismatches as failed ops on ph, and places the end-of-run memory
	// checkpoint where the end state is deterministic.
	verify(rc *runContext, ph *phase) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlOffline:
		return &offlineSelect{}, nil
	case wlLifecycle:
		return &sketchLifecycle{}, nil
	case wlRead:
		return &serveRead{}, nil
	case wlChurn:
		return &serveChurn{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, allWorkloadNames())
}

// runContext carries one run's parameters and meters.
type runContext struct {
	seed uint64
	dir  string // inputs and scratch files, removed when the run ends
	mem  residentMeter
}

// workRoot is where runs keep their files: under the checkout, because
// the benchmark may read and write nowhere else.
const workRoot = ".bench_build/tmp"

func newRunContext(workload string, seed uint64) (*runContext, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, workload+"-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &runContext{seed: seed, dir: abs}, nil
}

func (rc *runContext) cleanup() { os.RemoveAll(rc.dir) }

func (rc *runContext) path(name string) string { return filepath.Join(rc.dir, name) }

// runWorkload executes one workload end to end and returns its result.
// With trace set the timed budget is split between an untraced and a
// traced stretch, followed by the layer ledger.
func runWorkload(name string, seed uint64, seconds float64, trace bool, traceFile string) (*WorkloadResult, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	rc, err := newRunContext(name, seed)
	if err != nil {
		return nil, err
	}
	defer rc.cleanup()

	res := &WorkloadResult{Workload: name, Seed: seed, Seconds: seconds, Traced: trace, Metrics: map[string]Metric{}}

	t0 := time.Now()
	if err := w.gen(rc); err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", name, err)
	}
	res.GenS = time.Since(t0).Seconds()

	var setups samples
	for i := 0; i < minSetupReps || (i < maxSetupReps && setups.sum() < setupBudget.Seconds()); i++ {
		if i > 0 {
			w.teardown()
		}
		// Start every repetition from a collected heap, so that whether a
		// GC cycle lands inside the set-up does not depend on how much
		// garbage the previous one left.
		runtime.GC()
		t, paused := time.Now(), rc.mem.spent
		if err := w.setup(rc); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups.add((time.Since(t) - (rc.mem.spent - paused)).Seconds())
	}
	defer w.teardown()
	rc.mem.checkpoint()

	budget := time.Duration(seconds * float64(time.Second))
	if trace {
		budget /= 2
	}
	ph, err := w.run(rc, budget, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	var traced *phase
	var tr *Tracer
	if trace {
		tr = newTracer()
		if traced, err = w.run(rc, budget, tr); err != nil {
			return nil, fmt.Errorf("%s (traced): %w", name, err)
		}
	}
	if err := w.verify(rc, ph); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", name, err)
	}

	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Failures = ph.failures
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Failures = append(res.Failures, traced.failures...)
	}
	if err := fillEndToEnd(res, rc, ph, setups); err != nil {
		return nil, err
	}
	if trace {
		if err := fillPerLayer(res, rc, ph, traced, tr, traceFile); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// fillEndToEnd derives the end-to-end metrics from the untraced stretch:
// the op metrics from the quiet quarter of its windows, setup_s as the
// lower quartile of the set-ups for the same reason.
func fillEndToEnd(res *WorkloadResult, rc *runContext, ph *phase, setups samples) error {
	byLatency := pooled(ph.windows.quiet(window.medianMS))
	if len(byLatency.lat) == 0 {
		return fmt.Errorf("%s: no op succeeded (%d attempted, %d failed): %v", res.Workload, ph.attempted, ph.failed, ph.failures)
	}
	sum := byLatency.lat.summarize()
	tail := sum
	if ph.wholeTail {
		tail = pooled(ph.windows.all()).lat.summarize()
	}
	res.put("setup_s", setups.quantile(25), len(setups), 0)
	res.put("resident_mb", rc.mem.mb(), 0, 0)
	res.put("op_p50_ms", sum.P50, sum.N, 50)
	rate := ph.windows
	if ph.rate != nil {
		rate = ph.rate
	}
	byRate := pooled(rate.quiet(window.secondsPerOp))
	res.put("ops_per_s", 1/byRate.secondsPerOp(), len(byRate.lat), 0)
	byAlloc := pooled(rate.quiet(window.allocMBPerOp))
	res.put("alloc_mb_per_op", byAlloc.allocMBPerOp(), len(byAlloc.lat), 0)
	byCPU := pooled(rate.quiet(window.cpuMSPerOp))
	res.put("cpu_ms_per_op", byCPU.cpuMSPerOp(), len(byCPU.lat), 0)
	for _, m := range workloadMetrics {
		if v, has := ph.extra[m.Name]; has && m.reports(res.Workload) {
			res.put(m.Name, v, 0, 0)
		}
	}
	if opTail.reports(res.Workload) {
		res.put(opTail.Name, tail.Tail, tail.N, tail.TailPct)
	}
	return nil
}

// fillPerLayer completes a traced run: the overhead of the spans, the
// workload-specific metrics in their per-layer form, the ledger, the
// workload's self time by layer and the span dump.
func fillPerLayer(res *WorkloadResult, rc *runContext, ph, traced *phase, tr *Tracer, traceFile string) error {
	workloadSpans := tr.snapshot()
	res.PerLayer = map[string]Metric{}
	ratio := 1.0
	if t := pooled(traced.windows.quiet(window.medianMS)).lat; len(t) > 0 {
		ratio = t.median() / res.Metrics["op_p50_ms"].Value
	}
	res.putLayer(traceOverhead.Name, ratio)
	for _, m := range workloadMetrics {
		res.putLayer(workloadPrefix+m.Name, res.Metrics[m.Name].Value)
	}
	if err := runLedger(rc, res, tr); err != nil {
		return fmt.Errorf("%s: ledger: %w", res.Workload, err)
	}
	res.LayerSelfMS = map[string]float64{}
	for layer, d := range layerSelf(workloadSpans) {
		res.LayerSelfMS[layer] = ms(d)
	}
	if traceFile != "" {
		if err := writeTrace(traceFile, tr.snapshot()); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		res.TraceFile = traceFile
	}
	return nil
}
