package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// residentMeter tracks resident_mb: the maximum, over checkpoints, of
// the live heap after a forced collection. A checkpoint stops the world
// for the collection, so workloads place them outside timed sections.
type residentMeter struct {
	maxLive uint64
	// spent is the wall time checkpoints have taken, for callers that
	// place one inside a section they time and must subtract it.
	spent time.Duration
}

func (m *residentMeter) checkpoint() {
	start := time.Now()
	defer func() { m.spent += time.Since(start) }()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.maxLive {
		m.maxLive = ms.HeapAlloc
	}
}

func (m *residentMeter) mb() float64 { return float64(m.maxLive) / (1 << 20) }

// usage is a snapshot of the process's cumulative CPU time and heap
// allocation. Reading it does not stop the world, so it is safe inside
// a timed phase.
type usage struct {
	cpu   time.Duration
	alloc uint64
	objs  uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	u.alloc, u.objs = s[0].Value.Uint64(), s[1].Value.Uint64()
	return u
}

// allocsOf runs fn and reports what it allocated. Only meaningful while
// nothing else in the process allocates, which holds for the ledger's
// single-goroutine probes.
func allocsOf(fn func()) (mb float64, objs uint64) {
	before := readUsage()
	fn()
	after := readUsage()
	return float64(after.alloc-before.alloc) / (1 << 20), after.objs - before.objs
}

// window is what completed in one stretch of a timed phase — a round on
// the batch workloads, a second on the serving ones — and what it cost.
type window struct {
	seconds float64
	lat     samples // latency of each op that completed in the window, ms
	cpuMS   float64
	allocMB float64
}

// windowMeter cuts a timed phase into windows so the metrics can be read
// from the quiet ones. On a shared box interference only ever slows a
// window: on the reference VM a fixed 10 ms loop reads 15-24 ms in
// bursts of 0.2 s to several seconds, on some days 15% of the time and
// on others 40%. The run therefore reports its quiet quarter — the
// quarter of its windows that reads cheapest, pooled — where figures
// over the whole phase would mix in however many bursts the run
// happened to catch. The same selection keeps the rare expensive event
// (serve-churn's cold IMM job costs two hundred ordinary reads) out of
// the per-op costs.
type windowMeter struct {
	mu      sync.Mutex
	cur     window
	last    usage
	lastAt  time.Time
	windows []window
}

func newWindowMeter() *windowMeter {
	return &windowMeter{last: readUsage(), lastAt: time.Now()}
}

// opDone records a successful op's latency in the current window.
func (m *windowMeter) opDone(latencyMS float64) {
	m.mu.Lock()
	m.cur.lat.add(latencyMS)
	m.mu.Unlock()
}

// mark closes the current window.
func (m *windowMeter) mark() {
	now, at := readUsage(), time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur.seconds = at.Sub(m.lastAt).Seconds()
	m.cur.cpuMS = ms(now.cpu - m.last.cpu)
	m.cur.allocMB = float64(now.alloc-m.last.alloc) / (1 << 20)
	m.windows = append(m.windows, m.cur)
	m.cur, m.last, m.lastAt = window{}, now, at
}

// everySecond marks a window each second until the returned stop
// function is called; the partial window open at that moment is dropped.
func (m *windowMeter) everySecond() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				m.mark()
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

func (w window) ops() float64          { return float64(len(w.lat)) }
func (w window) medianMS() float64     { return w.lat.median() }
func (w window) secondsPerOp() float64 { return w.seconds / w.ops() }
func (w window) cpuMSPerOp() float64   { return w.cpuMS / w.ops() }
func (w window) allocMBPerOp() float64 { return w.allocMB / w.ops() }

// all returns every non-empty window.
func (m *windowMeter) all() []window {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []window
	for _, w := range m.windows {
		if len(w.lat) > 0 {
			out = append(out, w)
		}
	}
	return out
}

// quiet returns the quarter (rounded up) of the non-empty windows that
// read lowest on cost. Each metric ranks the windows by its own cost: a
// cold job's CPU lands in a window without moving that window's median
// latency, so one ranking would not serve them all.
func (m *windowMeter) quiet(cost func(window) float64) []window {
	m.mu.Lock()
	defer m.mu.Unlock()
	type costed struct {
		w    window
		cost float64
	}
	var full []costed
	for _, w := range m.windows {
		if len(w.lat) > 0 {
			full = append(full, costed{w, cost(w)})
		}
	}
	sort.SliceStable(full, func(i, j int) bool { return full[i].cost < full[j].cost })
	out := make([]window, (len(full)+3)/4)
	for i := range out {
		out[i] = full[i].w
	}
	return out
}

// pooled sums windows into one.
func pooled(ws []window) window {
	var p window
	for _, w := range ws {
		p.seconds += w.seconds
		p.cpuMS += w.cpuMS
		p.allocMB += w.allocMB
		p.lat = append(p.lat, w.lat...)
	}
	return p
}
