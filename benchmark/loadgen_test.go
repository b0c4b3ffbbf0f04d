package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopAccountingCountsFromDueTime(t *testing.T) {
	msd := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	log := &openLoopLog{due: msd(0, 10, 20), released: msd(1, 10, 35), done: msd(5, 12, 40)}
	for i, want := range []float64{5, 2, 20} {
		if got := log.latencyMS(i); got != want {
			t.Errorf("event %d latency = %v ms, want %v (from its due time, not its release)", i, got, want)
		}
	}
	late := log.lateness()
	for i, want := range []float64{1, 0, 15} {
		if late[i] != want {
			t.Errorf("event %d lateness = %v ms, want %v", i, late[i], want)
		}
	}
	if _, err := log.checkLateness(); err != nil {
		t.Errorf("median lateness 1 ms refused: %v", err)
	}
	behind := &openLoopLog{due: msd(0, 10, 20), released: msd(8, 19, 30), done: msd(9, 20, 31)}
	if p99, err := behind.checkLateness(); err == nil {
		t.Errorf("a generator 8-10 ms behind on every event reported (p99 %.1f ms)", p99)
	}
}

func TestScheduleIsFixedInterval(t *testing.T) {
	due := schedule(4, 20*time.Millisecond)
	for i, d := range due {
		if d != time.Duration(i)*20*time.Millisecond {
			t.Fatalf("due[%d] = %v", i, d)
		}
	}
}

// A stalled op must not hold back the schedule, and the requests queued
// behind it are charged the wait.
func TestOpenLoopChargesQueueingToLaterEvents(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := schedule(6, 5*time.Millisecond)
	log := openLoop(due, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i := range due {
		if log.done[i] < 0 {
			t.Fatalf("event %d never completed", i)
		}
	}
	// Every event was released on schedule although the only worker was
	// stuck: the last one is due at 25 ms, well inside the stall.
	if last := log.released[len(due)-1]; last >= stall {
		t.Errorf("last event released at %v: the stall held the generator back", last)
	}
	if got := log.latencyMS(1); got < ms(stall-due[1])-1 {
		t.Errorf("event queued behind the stall has latency %.1f ms, want about %.0f", got, ms(stall-due[1]))
	}
}

func TestClosedLoopHandsOutDistinctSequenceNumbers(t *testing.T) {
	var next atomic.Int64
	var calls atomic.Int64
	seen := make([]atomic.Bool, 1<<16)
	start := time.Now()
	closedLoop(2, 30*time.Millisecond, &next, func(_ int, seq int64) {
		calls.Add(1)
		if seen[seq].Swap(true) {
			t.Errorf("sequence number %d handed out twice", seq)
		}
		time.Sleep(time.Millisecond)
	})
	if calls.Load() < 4 || calls.Load() != next.Load() {
		t.Errorf("%d calls for %d sequence numbers", calls.Load(), next.Load())
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("closed loop ran %v of its 30 ms", elapsed)
	}
}
