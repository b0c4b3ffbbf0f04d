package service

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestManagerShutdownDrainsRunningCancelsQueued pins the graceful-
// shutdown contract: queued jobs are canceled immediately (they never
// started, nothing is lost), the running job gets to finish within the
// context budget, and new submissions are refused.
func TestManagerShutdownDrainsRunningCancelsQueued(t *testing.T) {
	m := NewManager(1, 4, 16)
	defer m.Close()
	release := make(chan struct{})
	blocker := func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		select {
		case <-release:
			return answerOf(SelectResult{Algorithm: "stub"}), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	running, _, err := m.Submit(JobSpec{Key: "running", K: 1}, blocker)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for statusOf(running).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, _, err := m.Submit(JobSpec{Key: "queued", K: 1}, blocker)
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- m.Shutdown(ctx)
	}()

	// The queued job is canceled without waiting for the running one.
	waitDone(t, queued)
	if st := statusOf(queued); st.State != StateCanceled {
		t.Fatalf("queued job state %s, want canceled", st.State)
	}
	if statusOf(running).State != StateRunning {
		t.Fatal("running job was killed instead of drained")
	}
	if _, _, err := m.Submit(JobSpec{Key: "late", K: 1}, blocker); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Submit err = %v, want ErrShuttingDown", err)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitDone(t, running)
	if st := statusOf(running); st.State != StateDone {
		t.Fatalf("running job state %s, want done (drained)", st.State)
	}
}

// Shutdown with an already-expired context still cancels queued work and
// returns the context error rather than hanging on the running job.
func TestManagerShutdownExpiredBudget(t *testing.T) {
	m := NewManager(1, 4, 16)
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	j, _, err := m.Submit(JobSpec{Key: "slow", K: 1}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return answerOf(SelectResult{}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for statusOf(j).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown over dead context = %v, want context.Canceled", err)
	}
}

// TestServerShutdownFlipsReadyAndShedsRequests is the HTTP face of
// graceful shutdown: /readyz goes 503 first (routers stop sending), new
// job submissions answer 503 with the uniform envelope, and liveness
// stays 200 throughout.
func TestServerShutdownFlipsReadyAndShedsRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	var out map[string]string
	if code := doJSON(t, "GET", ts.URL+"/readyz", nil, &out); code != http.StatusOK {
		t.Fatalf("readyz before shutdown: %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	var envelope ErrorResponse
	if code := doJSON(t, "GET", ts.URL+"/readyz", nil, &envelope); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d", code)
	}
	if envelope.Error.Code != "unavailable" {
		t.Fatalf("readyz envelope %+v", envelope)
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("healthz after shutdown: %d (liveness must survive drain)", code)
	}

	envelope = ErrorResponse{}
	code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", K: 2, Algorithm: "greedy", Options: Options{MCRuns: 10}}, &envelope)
	if code != http.StatusServiceUnavailable || envelope.Error.Code != "unavailable" {
		t.Fatalf("select during drain: %d %+v", code, envelope)
	}
}
