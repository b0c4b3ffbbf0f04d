package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/holisticim/holisticim/internal/admission"
)

// Admission errors. All three are load-shedding signals carrying a
// retry hint (Manager.RetryAfterHintFor), not hard failures: handlers
// translate ErrQueueFull to 429 and the other two to 503, each with a
// Retry-After header, so a cluster router can tell overload (fail over
// to another replica) from a request that is itself broken.
var (
	// ErrQueueFull reports that the job queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrPastDeadline reports a job whose deadline would expire before a
	// worker could plausibly start it — queueing it would only burn a
	// slot on work nobody can use.
	ErrPastDeadline = errors.New("service: deadline expires before the job could start")
	// ErrShuttingDown reports a submission against a draining manager.
	ErrShuttingDown = errors.New("service: shutting down")
)

// ShedReason classifies a load-shedding rejection for the per-priority
// shed counters backing im_jobs_shed_by_priority_total.
type ShedReason int

// The shed reasons, in counter order.
const (
	// ShedQueueFull: the submission found the queue at capacity (429).
	ShedQueueFull ShedReason = iota
	// ShedDeadline: the deadline could not survive the estimated queue
	// wait plus run time, so the job was refused at admission (503).
	ShedDeadline
	// ShedExpired: the deadline passed while the job sat in the queue;
	// a worker dropped it at dequeue instead of running it.
	ShedExpired
	// NumShedReasons sizes per-reason arrays.
	NumShedReasons int = iota
)

// String returns the metric-label form of r.
func (r ShedReason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue_full"
	case ShedDeadline:
		return "deadline"
	default:
		return "expired"
	}
}

// JobFunc runs one computation. It must honor ctx — returning promptly
// with an error wrapping ctx.Err() when cancelled — and may call report
// with the number of progress units (seeds selected, or batch members
// estimated) completed so far to publish live progress. A cancelled or
// failed run may still return a non-nil partial payload alongside its
// error; the job retains it for status polling. Every job answers in the
// one typed payload: planner queries return their answer, sketch builds
// a one-member summary.
type JobFunc func(ctx context.Context, report func(seedsDone int)) (*QueryAnswer, error)

// Job is one asynchronous computation. Multiple requests with the same
// fingerprint share a single Job while it is in flight.
type Job struct {
	id     string
	key    string
	k      int // requested seed budget, for progress reporting
	done   chan struct{}
	ctx    context.Context // cancelled by Cancel and by Manager.Close
	cancel context.CancelFunc

	// Batch-query view, set at submission: how many members the query
	// has, the per-member seed budgets (select batches, for deriving
	// members-done from seed progress) and the immutable execution plan.
	members  int
	memberKs []int
	plan     *Plan
	// priority is the job's service class: workers drain all queued
	// interactive work before standard, and standard before batch.
	priority admission.Priority
	// expectedRun is the cost model's run-time prediction, folded into
	// admission-time deadline shedding (0 when no model is wired).
	expectedRun time.Duration
	// deadline, when non-zero, is the job's absolute completion bound: a
	// worker dequeuing it after expiry fails it without running fn.
	deadline   time.Time
	enqueuedAt time.Time // queue-wait measurement anchor

	seedsDone atomic.Int64

	mu    sync.Mutex
	state JobState
	// fn is dropped the moment the job turns terminal on any path: its
	// closure captures the graph snapshot (and sketch) the job was planned
	// against, which the retained job record must not keep alive.
	fn          JobFunc // guarded by mu
	result      *QueryAnswer
	err         error
	cancelAsked bool // a Cancel already fired for this job
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobSnapshot is a point-in-time view of a job, shared by the v1 and v2
// status shapes and the event stream.
type JobSnapshot struct {
	ID          string
	State       JobState
	K           int
	SeedsDone   int
	Members     int
	MembersDone int
	Payload     *QueryAnswer
	Err         error
	Plan        *Plan
}

// Snapshot captures the job's current state, progress and payload.
// MembersDone derives from the progress counter: for select batches it
// counts the budgets already covered by the seeds selected so far; for
// other batch jobs the counter reports members directly.
func (j *Job) Snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobSnapshot{
		ID:        j.id,
		State:     j.state,
		K:         j.k,
		SeedsDone: int(j.seedsDone.Load()),
		Members:   j.members,
		Payload:   j.result,
		Err:       j.err,
		Plan:      j.plan,
	}
	switch {
	case j.state == StateDone:
		s.MembersDone = j.members
	case j.memberKs != nil:
		for _, k := range j.memberKs {
			if k <= s.SeedsDone {
				s.MembersDone++
			}
		}
	default:
		s.MembersDone = s.SeedsDone
		if s.MembersDone > j.members {
			s.MembersDone = j.members
		}
	}
	if j.state == StateDone {
		if res := j.result.soleResult(); res != nil {
			s.SeedsDone = len(res.Seeds)
		}
	}
	return s
}

// Manager runs jobs on a bounded worker pool with a bounded queue and
// single-flight deduplication: submitting a key that is already pending
// or running attaches to the existing job instead of spawning another
// computation. Finished jobs are retained (up to maxJobs) so clients can
// poll results; the oldest finished jobs are evicted first.
//
// The queue is priority-aware: one FIFO per service class, drained
// interactive → standard → batch, so queued sketch-path work always
// dispatches ahead of queued cold Monte-Carlo work regardless of
// arrival order. The capacity bound spans all classes — the point is
// dispatch order, not reserved slots.
//
// Every job runs under its own cancellable context (derived from the
// manager's): Cancel stops one job, Close cancels all in-flight work.
// The queues are slices guarded by the manager lock (not channels), so
// cancelling a queued job frees its slot immediately.
type Manager struct {
	baseCtx  context.Context
	stopJobs context.CancelFunc
	wg       sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond                      // signalled on queue push, job completion and close
	queues   [admission.NumPriorities][]*Job // pending jobs awaiting a worker, FIFO per class
	queueCap int
	workers  int
	closed   bool
	draining bool            // Shutdown in progress: submissions are refused
	running  int             // jobs currently executing a JobFunc
	jobs     map[string]*Job // by id, including finished ones
	history  []string        // job ids in creation order, for eviction
	inflight map[string]*Job // by key, pending/running only
	nextID   uint64
	maxJobs  int

	// avgRunNanos is an EWMA of completed JobFunc wall times, feeding the
	// queue-wait estimate behind deadline shedding and Retry-After hints.
	avgRunNanos atomic.Int64

	submitted, deduped, canceled, shed atomic.Int64
	// shedBy breaks the shed total down by (service class, reason) for
	// the labeled shed metric family.
	shedBy [admission.NumPriorities][NumShedReasons]atomic.Int64

	// obsMu guards the optional duration observers (metrics hookup).
	obsMu   sync.Mutex
	obsWait func(seconds float64) // queue wait of jobs that reached a worker
	obsRun  func(seconds float64) // JobFunc wall time
}

// SetDurationObservers installs callbacks observing, in seconds, each
// job's queue wait (measured when a worker starts it) and its run wall
// time. Nil callbacks disable the corresponding observation.
func (m *Manager) SetDurationObservers(wait, run func(seconds float64)) {
	m.obsMu.Lock()
	m.obsWait, m.obsRun = wait, run
	m.obsMu.Unlock()
}

func (m *Manager) durationObservers() (wait, run func(float64)) {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	return m.obsWait, m.obsRun
}

// NewManager starts a pool of workers with the given queue capacity,
// retaining at most maxJobs job records. Non-positive arguments fall back
// to 1 worker / 64 queued / 1024 retained.
func NewManager(workers, queueCap, maxJobs int) *Manager {
	if workers <= 0 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	if maxJobs <= 0 {
		maxJobs = 1024
	}
	baseCtx, stopJobs := context.WithCancel(context.Background())
	m := &Manager{
		baseCtx:  baseCtx,
		stopJobs: stopJobs,
		queueCap: queueCap,
		workers:  workers,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		maxJobs:  maxJobs,
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// JobSpec describes a submission beyond its JobFunc: the dedup key, the
// batch view (members/memberKs/plan) served by job status, the v2
// surface and the event stream, and an optional absolute deadline that
// drives admission-time load shedding.
type JobSpec struct {
	Key      string
	K        int
	Members  int
	MemberKs []int
	Plan     *Plan
	// Priority is the job's service class (default Interactive, the
	// zero value): workers drain lower classes completely before
	// touching higher ones.
	Priority admission.Priority
	// ExpectedRun, when positive, is the cost model's prediction of the
	// job's run time. Deadline shedding refuses the job when estimated
	// queue wait plus ExpectedRun overshoots Deadline — without it only
	// the queue wait counts.
	ExpectedRun time.Duration
	// Deadline, when non-zero, is the job's absolute completion bound.
	// A submission whose estimated queue wait already overshoots it is
	// refused with ErrPastDeadline instead of queueing work nobody can
	// use, and a worker dequeuing the job after expiry fails it without
	// running its JobFunc.
	Deadline time.Time
}

// Submit enqueues fn under spec.Key. It returns the job and whether it
// was newly created: false means the caller attached to an in-flight job
// and fn was dropped — two submissions sharing a key by construction
// share the query, so the attached batch view is identical. A new job
// that cannot be admitted fails with ErrQueueFull, ErrPastDeadline or
// ErrShuttingDown.
func (m *Manager) Submit(spec JobSpec, fn JobFunc) (*Job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.inflight[spec.Key]; ok {
		m.deduped.Add(1)
		return j, false, nil
	}
	if m.draining || m.closed {
		return nil, false, ErrShuttingDown
	}
	if m.queueLenLocked() >= m.queueCap {
		m.shedLocked(spec.Priority, ShedQueueFull)
		return nil, false, ErrQueueFull
	}
	// Deadline-aware shedding: refuse a job whose deadline would expire
	// while it sits in the queue (or, when the cost model predicted a
	// run time, while it runs). The wait estimate is coarse (EWMA of
	// recent job runtimes across whatever mix of work the pool saw), so
	// it only refuses when even the estimate cannot fit — an optimistic
	// bias that sheds the hopeless tail without guessing too eagerly.
	if !spec.Deadline.IsZero() {
		wait := m.queueWaitLocked(spec.Priority)
		if need := wait + spec.ExpectedRun; need > 0 && time.Now().Add(need).After(spec.Deadline) {
			m.shedLocked(spec.Priority, ShedDeadline)
			return nil, false, fmt.Errorf("%w (estimated wait %s + run %s)",
				ErrPastDeadline, wait.Round(time.Millisecond), spec.ExpectedRun.Round(time.Millisecond))
		}
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		id:          fmt.Sprintf("j%08x", m.nextID),
		key:         spec.Key,
		k:           spec.K,
		fn:          fn,
		members:     spec.Members,
		memberKs:    spec.MemberKs,
		plan:        spec.Plan,
		priority:    spec.Priority,
		expectedRun: spec.ExpectedRun,
		deadline:    spec.Deadline,
		enqueuedAt:  time.Now(),
		done:        make(chan struct{}),
		ctx:         ctx,
		cancel:      cancel,
		state:       StatePending,
	}
	m.nextID++
	m.jobs[j.id] = j
	m.history = append(m.history, j.id)
	m.inflight[spec.Key] = j
	m.queues[j.priority] = append(m.queues[j.priority], j)
	m.submitted.Add(1)
	m.evictLocked()
	m.cond.Signal()
	return j, true, nil
}

// queueLenLocked is the queued-job count across all service classes.
func (m *Manager) queueLenLocked() int {
	n := 0
	for p := range m.queues {
		n += len(m.queues[p])
	}
	return n
}

// shedLocked records one load-shedding rejection under its class and
// reason. (Only the counters are touched; callers hold m.mu for the
// queue state they just inspected, not for the atomics.)
func (m *Manager) shedLocked(p admission.Priority, reason ShedReason) {
	m.shed.Add(1)
	m.shedBy[p][reason].Add(1)
}

// queueWaitLocked estimates how long a job of class p submitted now
// would wait for a worker: queued jobs that dispatch before it — all
// classes at or below p, since workers drain in class order — spread
// over the pool, each costing the EWMA runtime. Zero until the first
// job completes (no data — never shed on a cold pool). Lower classes
// jumping the queue later are invisible here; the estimate stays a
// hint, corrected at dequeue time by the expiry check.
func (m *Manager) queueWaitLocked(p admission.Priority) time.Duration {
	avg := time.Duration(m.avgRunNanos.Load())
	if avg <= 0 {
		return 0
	}
	ahead := m.running
	for q := admission.Interactive; q <= p; q++ {
		ahead += len(m.queues[q])
	}
	if ahead < m.workers {
		return 0
	}
	return avg * time.Duration(1+(ahead-m.workers)/m.workers)
}

// RetryAfterHintFor suggests how long a shed client of service class p
// should wait before retrying: the estimated time for the backlog that
// would dispatch ahead of class-p work to drain one slot — so an
// interactive client shed by a batch flood is told to retry soon, the
// flood does not block its lane — clamped to [1s, 60s] so the header is
// always actionable.
func (m *Manager) RetryAfterHintFor(p admission.Priority) time.Duration {
	m.mu.Lock()
	wait := m.queueWaitLocked(p)
	m.mu.Unlock()
	if wait < time.Second {
		return time.Second
	}
	if wait > time.Minute {
		return time.Minute
	}
	return wait
}

// Depth reports the queued and running job counts — the load signal
// /v1/cluster/info and the job gauges advertise to operators.
func (m *Manager) Depth() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queueLenLocked(), m.running
}

// DepthByPriority reports the queued jobs per service class, backing
// the im_jobs_queue_depth_by_priority gauge family.
func (m *Manager) DepthByPriority() [admission.NumPriorities]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out [admission.NumPriorities]int
	for p := range m.queues {
		out[p] = len(m.queues[p])
	}
	return out
}

// Shed returns how many submissions were refused by load shedding
// (queue-full and past-deadline rejections).
func (m *Manager) Shed() int64 { return m.shed.Load() }

// ShedCount returns the shed counter for one (class, reason) pair.
func (m *Manager) ShedCount(p admission.Priority, reason ShedReason) int64 {
	return m.shedBy[p][reason].Load()
}

// Get returns the job with the given id (including finished jobs still
// retained in history).
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel stops the job with the given id. A queued job is removed from
// the queue — freeing its slot immediately — and transitions to
// StateCanceled; a running job has its context cancelled and transitions
// once its JobFunc unwinds — promptly, since every selector honors
// cancellation — freeing the worker slot for queued work. accepted
// reports whether the job is (now or already) being cancelled; false
// with ok=true means the job had already completed and its outcome
// cannot be revoked. Cancel is idempotent.
func (m *Manager) Cancel(id string) (j *Job, accepted, ok bool) {
	if j, ok = m.Get(id); !ok {
		return nil, false, false
	}
	if m.finish(j, StatePending, StateCanceled, context.Canceled, nil) {
		return j, true, true
	}
	// Not queued, and no job returns to the queue: j is running or over.
	m.mu.Lock()
	j.mu.Lock()
	state, asked := j.state, j.cancelAsked
	if state == StateRunning {
		// Drop the dedup entry so new submissions start a fresh job
		// rather than attaching to one that is being torn down.
		if m.inflight[j.key] == j {
			delete(m.inflight, j.key)
		}
		j.cancelAsked = true
	}
	j.mu.Unlock()
	m.mu.Unlock()
	if state == StateRunning && !asked {
		j.cancel() // worker observes the JobFunc return and finalizes
	}
	// Done or failed is too late to revoke.
	return j, state == StateRunning || state == StateCanceled, true
}

// finish is the one terminal transition. Provided j is still in state
// from — otherwise another path got there first, and finish reports
// false having changed nothing — it publishes the outcome and, in the
// same critical section, drops what a terminal job must not hold: fn,
// whose closure pins the graph snapshot (and sketch) the job was planned
// against; the queue slot, when the job never reached a worker; and the
// dedup entry. Then it releases the job's context and wakes Done waiters.
// Locks nest m.mu → j.mu, as everywhere.
func (m *Manager) finish(j *Job, from, state JobState, err error, result *QueryAnswer) bool {
	m.mu.Lock()
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		m.mu.Unlock()
		return false
	}
	j.state, j.err, j.result, j.fn = state, err, result, nil
	j.mu.Unlock()
	if from == StatePending {
		// Still queued unless a worker or Shutdown already took it off.
		q := m.queues[j.priority]
		for i, queued := range q {
			if queued == j {
				m.queues[j.priority] = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	m.mu.Unlock()
	if state == StateCanceled {
		m.canceled.Add(1)
	}
	j.cancel()
	close(j.done)
	return true
}

// Submitted returns the number of jobs accepted (excluding deduplicated
// submissions).
func (m *Manager) Submitted() int64 { return m.submitted.Load() }

// Deduped returns the number of submissions that attached to an in-flight
// job instead of creating a new one.
func (m *Manager) Deduped() int64 { return m.deduped.Load() }

// Canceled returns the number of jobs that reached StateCanceled.
func (m *Manager) Canceled() int64 { return m.canceled.Load() }

// Close cancels all in-flight jobs and stops the workers once their
// current (now cancelled) jobs unwind; queued jobs that were never
// started remain pending.
func (m *Manager) Close() {
	m.stopJobs() // cancel every job context so running work returns promptly
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
	m.wg.Wait()
}

// Shutdown drains the manager gracefully: new submissions are refused
// with ErrShuttingDown, every still-queued job is cancelled (its slot
// was promised to no one), and running jobs get until ctx's deadline to
// finish before being cancelled like Close does. Always stops the
// workers before returning; the error is ctx.Err() when the drain
// timed out, nil when every running job completed in time.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed || m.draining {
		m.mu.Unlock()
		m.Close()
		return nil
	}
	m.draining = true
	var queued []*Job
	for p := range m.queues {
		queued = append(queued, m.queues[p]...)
		m.queues[p] = nil
	}
	m.mu.Unlock()

	// Cancel queued jobs through the transition Cancel uses, so pollers
	// observe the same canceled state either way. A job some Cancel got
	// to first is no longer pending, and finish leaves it alone.
	for _, j := range queued {
		m.finish(j, StatePending, StateCanceled, fmt.Errorf("%w: %w", ErrShuttingDown, context.Canceled), nil)
	}

	// Wait for running jobs, bounded by ctx. The waiter goroutine blocks
	// on the cond the workers broadcast at each job completion; a timeout
	// falls through to Close, which cancels the stragglers.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		m.mu.Lock()
		for m.running > 0 && !m.closed {
			m.cond.Wait()
		}
		m.mu.Unlock()
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	m.Close() // unblocks the waiter too, via closed + broadcast
	<-drained
	return err
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queueLenLocked() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		// Strict class order: the first non-empty queue wins, so queued
		// interactive work always dispatches before queued batch work.
		// Starvation of batch under sustained interactive load is the
		// intended trade — batch clients are told to back off (429/503 +
		// Retry-After) rather than batch work wedging the fast lane.
		var j *Job
		for p := range m.queues {
			if len(m.queues[p]) > 0 {
				j = m.queues[p][0]
				m.queues[p] = m.queues[p][1:]
				break
			}
		}
		m.running++
		m.mu.Unlock()
		m.run(j)
		m.mu.Lock()
		m.running--
		m.cond.Broadcast() // Shutdown waits on the running count
		m.mu.Unlock()
	}
}

// run executes one dequeued job to a terminal state.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	if j.state != StatePending { // cancelled after dequeue won the race
		j.mu.Unlock()
		return
	}
	// Dequeue-time load shedding: a job whose deadline passed while it
	// waited in the queue fails immediately instead of burning a worker
	// on a result its client has already given up on.
	expired := !j.deadline.IsZero() && time.Now().After(j.deadline)
	if !expired {
		j.state = StateRunning
	}
	fn := j.fn
	j.mu.Unlock()
	if expired {
		if m.finish(j, StatePending, StateFailed, fmt.Errorf("%w: expired while queued", ErrPastDeadline), nil) {
			m.shedLocked(j.priority, ShedExpired)
		}
		return
	}
	obsWait, obsRun := m.durationObservers()
	start := time.Now()
	if obsWait != nil {
		obsWait(start.Sub(j.enqueuedAt).Seconds())
	}
	res, err := fn(j.ctx, func(seedsDone int) {
		j.seedsDone.Store(int64(seedsDone))
	})
	// EWMA (α=1/4) of job runtimes feeds the queue-wait estimate. Workers
	// race the read-modify-write benignly: the estimate is a hint.
	sample := int64(time.Since(start))
	if obsRun != nil {
		obsRun(time.Duration(sample).Seconds())
	}
	if old := m.avgRunNanos.Load(); old == 0 {
		m.avgRunNanos.Store(sample)
	} else {
		m.avgRunNanos.Store(old + (sample-old)/4)
	}
	// A cancelled or failed run keeps the partial result its selector
	// returned; failure includes deadline expiry from a per-job timeout.
	state := StateFailed
	switch {
	case err == nil:
		state = StateDone
	case j.ctx.Err() != nil && errors.Is(err, context.Canceled):
		state = StateCanceled
	}
	m.finish(j, StateRunning, state, err, res)
}

// evictLocked drops the oldest finished jobs while over maxJobs. Pending
// and running jobs are never dropped, so the record count can temporarily
// exceed the cap under a burst of active work.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= m.maxJobs {
		return
	}
	kept := m.history[:0]
	for i, id := range m.history {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		// A terminal job is unreachable through the dedup map (finish
		// clears both under m.mu), so no Submit can still attach to it.
		if len(m.jobs) > m.maxJobs && j.terminal() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, m.history[i])
	}
	m.history = kept
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}
