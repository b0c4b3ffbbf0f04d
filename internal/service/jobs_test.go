package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/holisticim/holisticim/internal/admission"
)

// answerOf wraps one selection as the one-member select answer every
// /v1/select job produces; statusOf renders a job in the v1 select shape
// POST /v1/sketches reports builds in, through the production translation.
func answerOf(res SelectResult) *QueryAnswer {
	return &QueryAnswer{Task: "select", Members: []QueryMember{{Result: &res}}}
}

func statusOf(j *Job) SelectResponse {
	snap := j.Snapshot()
	return selectResponseOf(queryResponseOf(snap), snap.K)
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
}

func TestManagerRunsJob(t *testing.T) {
	m := NewManager(2, 8, 16)
	defer m.Close()
	j, created, err := m.Submit(JobSpec{Key: "k1", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{Algorithm: "stub", Seeds: []int32{7}}), nil
	})
	if err != nil || !created {
		t.Fatalf("Submit: created=%v err=%v", created, err)
	}
	waitDone(t, j)
	st := statusOf(j)
	if st.State != StateDone || st.Result == nil || st.Result.Seeds[0] != 7 {
		t.Fatalf("unexpected status %+v", st)
	}
	got, ok := m.Get(j.ID())
	if !ok || got != j {
		t.Fatalf("Get(%s) = %v, %v", j.ID(), got, ok)
	}
}

func TestManagerFailedJob(t *testing.T) {
	m := NewManager(1, 8, 16)
	defer m.Close()
	j, _, err := m.Submit(JobSpec{Key: "boom", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return nil, errors.New("synthetic failure")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	st := statusOf(j)
	if st.State != StateFailed || st.Error != "synthetic failure" {
		t.Fatalf("unexpected status %+v", st)
	}
}

func TestManagerSingleFlightDedup(t *testing.T) {
	m := NewManager(2, 8, 16)
	defer m.Close()
	release := make(chan struct{})
	var runs atomic.Int64
	fn := func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		runs.Add(1)
		<-release
		return answerOf(SelectResult{Algorithm: "stub"}), nil
	}
	j1, created1, err := m.Submit(JobSpec{Key: "same", K: 1}, fn)
	if err != nil || !created1 {
		t.Fatalf("first Submit: created=%v err=%v", created1, err)
	}
	j2, created2, err := m.Submit(JobSpec{Key: "same", K: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if created2 || j2 != j1 {
		t.Fatalf("second Submit should attach to in-flight job: created=%v same=%v", created2, j1 == j2)
	}
	if got := m.Deduped(); got != 1 {
		t.Fatalf("Deduped() = %d, want 1", got)
	}
	close(release)
	waitDone(t, j1)
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	// After completion the key is free again: a new submission must create
	// a fresh job (result caching is the layer above, not the manager's).
	j3, created3, err := m.Submit(JobSpec{Key: "same", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{}), nil
	})
	if err != nil || !created3 || j3 == j1 {
		t.Fatalf("post-completion Submit: created=%v fresh=%v err=%v", created3, j3 != j1, err)
	}
	waitDone(t, j3)
}

func TestManagerQueueFull(t *testing.T) {
	m := NewManager(1, 1, 16)
	defer m.Close()
	release := make(chan struct{})
	blocker := func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		<-release
		return answerOf(SelectResult{}), nil
	}
	// First job occupies the single worker; wait until it is actually
	// running so the queue slot is observable deterministically.
	j1, _, err := m.Submit(JobSpec{Key: "a", K: 1}, blocker)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for statusOf(j1).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	j2, _, err := m.Submit(JobSpec{Key: "b", K: 1}, blocker)
	if err != nil {
		t.Fatalf("queue should hold one job: %v", err)
	}
	if _, _, err := m.Submit(JobSpec{Key: "c", K: 1}, blocker); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Submit: err=%v, want ErrQueueFull", err)
	}
	// A rejected submission must not poison deduplication: once the queue
	// drains, key "c" must create a fresh job rather than attach to a
	// phantom in-flight entry.
	close(release)
	waitDone(t, j1)
	waitDone(t, j2)
	j3, created, err := m.Submit(JobSpec{Key: "c", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{}), nil
	})
	if err != nil || !created {
		t.Fatalf("post-drain Submit(c): created=%v err=%v", created, err)
	}
	waitDone(t, j3)
}

func TestManagerEvictsFinishedJobs(t *testing.T) {
	m := NewManager(2, 32, 4)
	defer m.Close()
	var jobs []*Job
	for i := 0; i < 12; i++ {
		j, _, err := m.Submit(JobSpec{Key: fmt.Sprintf("k%d", i), K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
			return answerOf(SelectResult{}), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		waitDone(t, j)
	}
	retained := 0
	for _, j := range jobs {
		if _, ok := m.Get(j.ID()); ok {
			retained++
		}
	}
	if retained > 5 { // maxJobs=4 plus at most the in-submission slack
		t.Fatalf("retained %d finished jobs, want <= 5", retained)
	}
	// The newest job must still be pollable.
	if _, ok := m.Get(jobs[len(jobs)-1].ID()); !ok {
		t.Fatal("newest job was evicted")
	}
}

// TestManagerConcurrency hammers Submit from many goroutines over few
// keys; run with -race. Every submission must observe a usable job and
// every job must terminate.
func TestManagerConcurrency(t *testing.T) {
	m := NewManager(4, 256, 4096)
	defer m.Close()
	const goroutines = 32
	const perG = 25
	var runs atomic.Int64
	var wg sync.WaitGroup
	jobCh := make(chan *Job, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("key%d", (g+i)%8)
				j, _, err := m.Submit(JobSpec{Key: key, K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
					runs.Add(1)
					return answerOf(SelectResult{}), nil
				})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				jobCh <- j
			}
		}(g)
	}
	wg.Wait()
	close(jobCh)
	for j := range jobCh {
		waitDone(t, j)
		if st := statusOf(j); st.State != StateDone {
			t.Fatalf("job %s state %s", j.ID(), st.State)
		}
	}
	total := m.Submitted() + m.Deduped()
	if total != goroutines*perG {
		t.Fatalf("submitted+deduped = %d, want %d", total, goroutines*perG)
	}
	if runs.Load() != m.Submitted() {
		t.Fatalf("fn ran %d times for %d created jobs", runs.Load(), m.Submitted())
	}
}

// TestManagerCancel exercises Manager.Cancel directly across the three
// job phases: queued (immediate transition), running (context-driven) and
// finished (refused).
func TestManagerCancel(t *testing.T) {
	m := NewManager(1, 8, 16)
	defer m.Close()
	running := make(chan struct{})
	blocker := func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		close(running)
		<-ctx.Done()
		return answerOf(SelectResult{Partial: true}), fmt.Errorf("stub: %w", ctx.Err())
	}
	j1, _, err := m.Submit(JobSpec{Key: "run", K: 1}, blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	j2, _, err := m.Submit(JobSpec{Key: "queued", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		t.Error("canceled queued job must never run")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Queued: transitions immediately, worker later skips it.
	if _, accepted, ok := m.Cancel(j2.ID()); !accepted || !ok {
		t.Fatalf("Cancel(queued) = accepted=%v ok=%v", accepted, ok)
	}
	if st := statusOf(j2); st.State != StateCanceled {
		t.Fatalf("queued job state %q", st.State)
	}
	// Running: unblocks via its context, retains the partial result.
	if _, accepted, ok := m.Cancel(j1.ID()); !accepted || !ok {
		t.Fatalf("Cancel(running) = accepted=%v ok=%v", accepted, ok)
	}
	waitDone(t, j1)
	if st := statusOf(j1); st.State != StateCanceled || st.Result == nil || !st.Result.Partial {
		t.Fatalf("running job after cancel: %+v", st)
	}
	if got := m.Canceled(); got != 2 {
		t.Fatalf("Canceled() = %d, want 2", got)
	}
	// Finished jobs refuse cancellation.
	j3, _, err := m.Submit(JobSpec{Key: "done", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	if _, accepted, ok := m.Cancel(j3.ID()); accepted || !ok {
		t.Fatalf("Cancel(done) = accepted=%v ok=%v, want refused", accepted, ok)
	}
	// Unknown ids.
	if _, _, ok := m.Cancel("nope"); ok {
		t.Fatal("Cancel(unknown) reported ok")
	}
}

// TestManagerCloseCancelsInflight proves shutdown does not drain: a
// running job's context is cancelled and Close returns once it unwinds.
func TestManagerCloseCancelsInflight(t *testing.T) {
	m := NewManager(2, 8, 16)
	running := make(chan struct{})
	j, _, err := m.Submit(JobSpec{Key: "slow", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		close(running)
		<-ctx.Done() // would block forever if shutdown drained politely
		return nil, fmt.Errorf("stub: %w", ctx.Err())
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not cancel the in-flight job")
	}
	waitDone(t, j)
	if st := statusOf(j); st.State != StateCanceled {
		t.Fatalf("job state %q after shutdown, want canceled", st.State)
	}
}

// TestJobProgressCounter proves the report callback is visible through
// Status while the job runs.
func TestJobProgressCounter(t *testing.T) {
	m := NewManager(1, 8, 16)
	defer m.Close()
	mid := make(chan struct{})
	release := make(chan struct{})
	j, _, err := m.Submit(JobSpec{Key: "prog", K: 4}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		report(2)
		close(mid)
		<-release
		report(4)
		return answerOf(SelectResult{Seeds: []int32{0, 1, 2, 3}}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-mid
	if st := statusOf(j); st.SeedsDone != 2 || st.K != 4 {
		t.Fatalf("mid-run status %+v, want seeds_done=2 k=4", st)
	}
	close(release)
	waitDone(t, j)
	if st := statusOf(j); st.State != StateDone || st.SeedsDone != 4 {
		t.Fatalf("final status %+v", st)
	}
}

// TestCancelFreesQueueSlot is the regression test for queue tombstones:
// cancelling a queued job must free its slot immediately, so a new
// submission succeeds while the worker is still busy.
func TestCancelFreesQueueSlot(t *testing.T) {
	m := NewManager(1, 1, 16)
	defer m.Close()
	running := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, _, err := m.Submit(JobSpec{Key: "busy", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		close(running)
		<-release
		return answerOf(SelectResult{}), nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	queued, _, err := m.Submit(JobSpec{Key: "q1", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		t.Error("canceled queued job must never run")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(JobSpec{Key: "q2", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{}), nil
	}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full before cancel: err=%v", err)
	}
	if _, accepted, ok := m.Cancel(queued.ID()); !accepted || !ok {
		t.Fatalf("Cancel(queued) accepted=%v ok=%v", accepted, ok)
	}
	// The slot is free right now — no worker had to drain a tombstone.
	replacement, created, err := m.Submit(JobSpec{Key: "q2", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{}), nil
	})
	if err != nil || !created {
		t.Fatalf("post-cancel Submit: created=%v err=%v", created, err)
	}
	_ = replacement
}

// TestManagerPriorityOrder proves dispatch order is class order, not
// arrival order: with the single worker busy, queued batch jobs are
// jumped by a later interactive submission.
func TestManagerPriorityOrder(t *testing.T) {
	m := NewManager(1, 8, 16)
	defer m.Close()
	running := make(chan struct{})
	release := make(chan struct{})
	if _, _, err := m.Submit(JobSpec{Key: "blocker", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		close(running)
		<-release
		return answerOf(SelectResult{}), nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running

	var mu sync.Mutex
	var order []string
	record := func(name string) JobFunc {
		return func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return answerOf(SelectResult{}), nil
		}
	}
	var jobs []*Job
	for _, sub := range []struct {
		name string
		prio admission.Priority
	}{
		{"batch1", admission.Batch},
		{"batch2", admission.Batch},
		{"standard1", admission.Standard},
		{"interactive1", admission.Interactive},
	} {
		j, _, err := m.Submit(JobSpec{Key: sub.name, Priority: sub.prio}, record(sub.name))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	depths := m.DepthByPriority()
	if depths[admission.Interactive] != 1 || depths[admission.Standard] != 1 || depths[admission.Batch] != 2 {
		t.Fatalf("DepthByPriority = %v", depths)
	}
	close(release)
	for _, j := range jobs {
		waitDone(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"interactive1", "standard1", "batch1", "batch2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestManagerShedReasons drives each shed path and checks the
// per-(class, reason) counters behind the labeled metric family.
func TestManagerShedReasons(t *testing.T) {
	m := NewManager(1, 1, 16)
	defer m.Close()
	running := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, _, err := m.Submit(JobSpec{Key: "busy", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		close(running)
		<-release
		return answerOf(SelectResult{}), nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	if _, _, err := m.Submit(JobSpec{Key: "fill", Priority: admission.Batch}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{}), nil
	}); err != nil {
		t.Fatal(err)
	}
	// Queue full: the single slot is taken.
	_, _, err := m.Submit(JobSpec{Key: "over", Priority: admission.Batch}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{}), nil
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := m.ShedCount(admission.Batch, ShedQueueFull); got != 1 {
		t.Fatalf("ShedCount(batch, queue_full) = %d, want 1", got)
	}
	if m.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", m.Shed())
	}
}

// TestManagerExpectedRunShed proves the cost model's prediction alone
// sheds a doomed submission, even on a cold pool with no queue wait
// history: a job predicted to run 10s cannot make a 50ms deadline.
func TestManagerExpectedRunShed(t *testing.T) {
	m := NewManager(2, 8, 16)
	defer m.Close()
	_, _, err := m.Submit(JobSpec{
		Key:         "doomed",
		Priority:    admission.Batch,
		ExpectedRun: 10 * time.Second,
		Deadline:    time.Now().Add(50 * time.Millisecond),
	}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		t.Error("a shed job must never run")
		return nil, nil
	})
	if !errors.Is(err, ErrPastDeadline) {
		t.Fatalf("err = %v, want ErrPastDeadline", err)
	}
	if got := m.ShedCount(admission.Batch, ShedDeadline); got != 1 {
		t.Fatalf("ShedCount(batch, deadline) = %d, want 1", got)
	}
	// The same spec without the prediction is admitted: the pool is cold,
	// so queue wait alone never sheds.
	j, created, err := m.Submit(JobSpec{
		Key:      "hopeful",
		Priority: admission.Batch,
		Deadline: time.Now().Add(50 * time.Millisecond),
	}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{}), nil
	})
	if err != nil || !created {
		t.Fatalf("cold-pool submission: created=%v err=%v", created, err)
	}
	waitDone(t, j)
}

// TestTerminalJobDropsItsFunc is the regression test for retained job
// records pinning graph snapshots: a JobFunc closes over the graph (and
// sketch) its query was planned against, and up to MaxJobs finished
// records stay pollable, so every path into a terminal state — ran,
// canceled while queued, expired at dequeue, canceled by shutdown — must
// drop the func.
func TestTerminalJobDropsItsFunc(t *testing.T) {
	noop := func(ctx context.Context, report func(int)) (*QueryAnswer, error) { return nil, nil }
	dropped := func(j *Job) bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.fn == nil
	}
	// busy occupies the single worker so later submissions stay queued.
	busy := func(m *Manager) (release chan struct{}) {
		running, release := make(chan struct{}), make(chan struct{})
		if _, _, err := m.Submit(JobSpec{Key: "busy"}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
			close(running)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		<-running
		return release
	}
	cases := []struct {
		name string
		end  func(m *Manager) *Job // drives one job to a terminal state
		want JobState
	}{
		{"ran", func(m *Manager) *Job {
			j, _, _ := m.Submit(JobSpec{Key: "ran"}, noop)
			return j
		}, StateDone},
		{"canceled while queued", func(m *Manager) *Job {
			defer close(busy(m))
			j, _, _ := m.Submit(JobSpec{Key: "queued"}, noop)
			m.Cancel(j.ID())
			return j
		}, StateCanceled},
		{"expired at dequeue", func(m *Manager) *Job {
			release := busy(m)
			j, _, _ := m.Submit(JobSpec{Key: "late", Deadline: time.Now().Add(20 * time.Millisecond)}, noop)
			time.Sleep(40 * time.Millisecond)
			close(release)
			return j
		}, StateFailed},
		{"canceled by shutdown", func(m *Manager) *Job {
			defer close(busy(m))
			j, _, _ := m.Submit(JobSpec{Key: "drained"}, noop)
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // no drain budget: queued jobs are canceled either way
			_ = m.Shutdown(ctx)
			return j
		}, StateCanceled},
	}
	for _, tc := range cases {
		m := NewManager(1, 4, 16)
		j := tc.end(m)
		if j == nil {
			t.Fatalf("%s: submission refused", tc.name)
		}
		waitDone(t, j)
		if st := j.Snapshot().State; st != tc.want {
			t.Errorf("%s: state %s, want %s", tc.name, st, tc.want)
		}
		if !dropped(j) {
			t.Errorf("%s: terminal job still holds its JobFunc (and everything it captured)", tc.name)
		}
		m.Close()
	}
}

// TestTerminalTransitionHappensOncePerJob races every path into finish —
// workers completing and expiring jobs, several Cancels per job, and a
// Shutdown sweeping the queue — over the same jobs. Each job must end
// exactly once (a second close of its done channel would panic), in one
// agreed state, counted once, holding no func and no dedup entry.
func TestTerminalTransitionHappensOncePerJob(t *testing.T) {
	const jobs = 200
	m := NewManager(4, jobs, jobs)
	defer m.Close()
	all := make([]*Job, jobs)
	for i := range all {
		spec := JobSpec{Key: fmt.Sprintf("k%d", i)}
		if i%5 == 0 {
			spec.Deadline = time.Now().Add(time.Millisecond) // some expire while queued
		}
		fn := func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(200 * time.Microsecond):
				return nil, nil
			}
		}
		j, _, err := m.Submit(spec, fn)
		if errors.Is(err, ErrPastDeadline) { // refused at the door once the wait estimate is warm
			j, _, err = m.Submit(JobSpec{Key: spec.Key}, fn)
		}
		if err != nil {
			t.Fatal(err)
		}
		all[i] = j
	}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < jobs; i += 2 {
				m.Cancel(all[i].ID())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		_ = m.Shutdown(context.Background())
	}()
	wg.Wait()

	canceled := int64(0)
	for _, j := range all {
		waitDone(t, j)
		j.mu.Lock()
		state, fn := j.state, j.fn
		j.mu.Unlock()
		if fn != nil {
			t.Errorf("job %s ended %s still holding its func", j.ID(), state)
		}
		if state == StateCanceled {
			canceled++
		}
		if state == StatePending || state == StateRunning {
			t.Errorf("job %s is done but in state %s", j.ID(), state)
		}
	}
	if got := m.Canceled(); got != canceled {
		t.Errorf("canceled counter = %d, jobs in state canceled = %d", got, canceled)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.inflight) != 0 || m.queueLenLocked() != 0 {
		t.Errorf("after every job ended: %d dedup entries, %d queued", len(m.inflight), m.queueLenLocked())
	}
}
