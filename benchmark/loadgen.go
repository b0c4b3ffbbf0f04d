package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs `clients` goroutines for d; each takes the next
// sequence number and calls do, sending its next request only after the
// previous one completed.
func closedLoop(clients int, d time.Duration, next *atomic.Int64, do func(client int, seq int64)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(c, next.Add(1)-1)
			}
		}(c)
	}
	wg.Wait()
}

// openLoopLog is the open-loop generator's account of one phase, as
// offsets from the phase start: when each event was due, when the
// generator released it, and when its op completed (negative: it never
// did). Latency counts from the due time, so a stall's cost to the
// requests queued behind it is counted.
type openLoopLog struct {
	due      []time.Duration
	released []time.Duration
	done     []time.Duration
}

// schedule lays out n events at a fixed interval, the first at offset 0.
func schedule(n int, interval time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	return due
}

// latencyMS returns event i's latency from its due time.
func (l *openLoopLog) latencyMS(i int) float64 { return ms(l.done[i] - l.due[i]) }

// lateness returns, per event, how far behind schedule the generator
// itself released it (never negative).
func (l *openLoopLog) lateness() samples {
	out := make(samples, len(l.due))
	for i := range l.due {
		if late := l.released[i] - l.due[i]; late > 0 {
			out[i] = ms(late)
		}
	}
	return out
}

// maxGenLateP50MS is the median lateness above which an open-loop phase
// refuses to report: a generator that far behind on its typical event is
// not keeping the schedule, and the latencies would measure it. The p99
// is reported but not gated: generator and server share one Go
// scheduler, and whenever the server keeps every P busy (a repair
// resampling on all cores, a GC mark worker) the timer that releases the
// next event waits for the 10 ms preemption tick. That wait is in each
// latency too, since latency counts from the due time.
const maxGenLateP50MS = 5.0

func (l *openLoopLog) checkLateness() (p99 float64, err error) {
	late := l.lateness()
	if p50 := late.quantile(50); p50 > maxGenLateP50MS {
		err = fmt.Errorf("open-loop generator ran %.2f ms late at the median (limit %.0f ms); refusing to report", p50, maxGenLateP50MS)
	}
	return late.quantile(99), err
}

// openLoop releases event i at start+due[i] regardless of how earlier
// events are doing, to `workers` goroutines that call do(i). Events a
// busy worker pool cannot take at once wait in the queue, and that wait
// is part of their latency.
func openLoop(due []time.Duration, workers int, do func(i int)) *openLoopLog {
	log := &openLoopLog{due: due, released: make([]time.Duration, len(due)), done: make([]time.Duration, len(due))}
	for i := range log.done {
		log.done[i] = -1
	}
	// The queue holds every event so the releasing goroutine never
	// blocks on a slow worker pool.
	queue := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				do(i)
				log.done[i] = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		log.released[i] = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return log
}
