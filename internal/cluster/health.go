package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"github.com/holisticim/holisticim/internal/obs"
	"github.com/holisticim/holisticim/internal/service"
)

// replicaState is the router's view of one replica, refreshed by polling
// GET /v1/cluster/info.
type replicaState struct {
	Healthy  bool                `json:"healthy"`
	LastErr  string              `json:"last_error,omitempty"`
	LastPoll time.Time           `json:"last_poll"`
	Info     service.ClusterInfo `json:"info"`
}

// membership polls replicas for liveness and manifest freshness and
// answers the ranking questions routing asks: who is healthy, who is
// manifest-fresh, who owns a key.
type membership struct {
	replicas []string // base URLs, ring order (sorted)
	ring     *Ring
	client   *http.Client
	interval time.Duration

	// logger reports health transitions; set by NewRouter before any
	// poll runs (defaults to discard for bare constructions).
	logger *slog.Logger

	mu     sync.RWMutex
	states map[string]*replicaState
}

func newMembership(replicas []string, client *http.Client, interval time.Duration) *membership {
	ring := NewRing(replicas)
	m := &membership{
		replicas: ring.Replicas(),
		ring:     ring,
		client:   client,
		interval: interval,
		states:   make(map[string]*replicaState, len(replicas)),
	}
	for _, r := range m.replicas {
		m.states[r] = &replicaState{}
	}
	m.logger = obs.Nop()
	return m
}

// PollOnce refreshes every replica's state concurrently. A replica is
// healthy when its cluster info answers 200 AND it reports ready —
// warm-loading or draining replicas take no new traffic.
func (m *membership) PollOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, addr := range m.replicas {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			info, err := m.fetchInfo(ctx, addr)
			m.mu.Lock()
			st := m.states[addr]
			was, everPolled := st.Healthy, !st.LastPoll.IsZero()
			st.LastPoll = time.Now()
			if err != nil {
				st.Healthy = false
				st.LastErr = err.Error()
			} else {
				st.Healthy = info.Ready
				st.LastErr = ""
				if !info.Ready {
					st.LastErr = "replica not ready"
				}
				st.Info = info
			}
			now, lastErr := st.Healthy, st.LastErr
			m.mu.Unlock()
			// Log transitions only (plus the very first verdict), not
			// every poll — a 1s poll interval would drown the log.
			if now != was || !everPolled {
				if now {
					m.logger.Info("replica healthy", "replica", addr)
				} else {
					m.logger.Warn("replica unhealthy", "replica", addr, "error", lastErr)
				}
			}
		}(addr)
	}
	wg.Wait()
}

func (m *membership) fetchInfo(ctx context.Context, addr string) (service.ClusterInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/cluster/info", nil)
	if err != nil {
		return service.ClusterInfo{}, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return service.ClusterInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.ClusterInfo{}, fmt.Errorf("cluster info: status %d", resp.StatusCode)
	}
	var info service.ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return service.ClusterInfo{}, err
	}
	return info, nil
}

// Run polls until ctx ends.
func (m *membership) Run(ctx context.Context) {
	tick := time.NewTicker(m.interval)
	defer tick.Stop()
	for {
		m.PollOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// healthy returns the healthy replicas in ring order.
func (m *membership) healthy() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for _, addr := range m.replicas {
		if m.states[addr].Healthy {
			out = append(out, addr)
		}
	}
	return out
}

// snapshot copies the full state map for the router's cluster view.
func (m *membership) snapshot() map[string]replicaState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]replicaState, len(m.states))
	for addr, st := range m.states {
		out[addr] = *st
	}
	return out
}

// maxManifestVersion is the freshest manifest any healthy replica has
// fully loaded — the router's definition of "current".
func (m *membership) maxManifestVersion() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var max uint64
	for _, st := range m.states {
		if st.Healthy && st.Info.ManifestVersion > max {
			max = st.Info.ManifestVersion
		}
	}
	return max
}

// rank orders the candidate replicas for a key: the key's rendezvous
// owners first (capped at the replication factor), then every other
// healthy replica as failover — all filtered to healthy, and within
// each group manifest-fresh replicas before stale ones. The returned
// note is non-empty when the top choice is NOT a fresh owner, so routed
// responses can explain the degraded placement.
func (m *membership) rank(key string, replication int) (candidates []string, note string) {
	owners := m.ring.Owners(key, replication)
	healthySet := make(map[string]bool)
	for _, addr := range m.healthy() {
		healthySet[addr] = true
	}
	fresh := m.maxManifestVersion()
	m.mu.RLock()
	isFresh := func(addr string) bool {
		return m.states[addr].Info.ManifestVersion == fresh
	}
	ownerSet := make(map[string]bool, len(owners))
	var freshOwners, staleOwners, freshRest, staleRest []string
	for _, addr := range owners {
		ownerSet[addr] = true
		if !healthySet[addr] {
			continue
		}
		if isFresh(addr) {
			freshOwners = append(freshOwners, addr)
		} else {
			staleOwners = append(staleOwners, addr)
		}
	}
	for _, addr := range m.replicas {
		if ownerSet[addr] || !healthySet[addr] {
			continue
		}
		if isFresh(addr) {
			freshRest = append(freshRest, addr)
		} else {
			staleRest = append(staleRest, addr)
		}
	}
	m.mu.RUnlock()

	candidates = append(candidates, freshOwners...)
	candidates = append(candidates, staleOwners...)
	candidates = append(candidates, freshRest...)
	candidates = append(candidates, staleRest...)
	switch {
	case len(candidates) == 0:
		note = "no healthy replica"
	case len(freshOwners) == 0 && len(staleOwners) > 0:
		note = "owners lag the cluster manifest; routed to a stale owner"
	case len(freshOwners) == 0 && len(staleOwners) == 0:
		note = "no healthy owner for key; routed to a non-owner replica"
	}
	return candidates, note
}

// indexOf maps a replica address to its stable ring index, used as the
// job-id prefix (`r<idx>-...`) so job polling routes back to the replica
// that owns the job.
func (m *membership) indexOf(addr string) int {
	for i, a := range m.replicas {
		if a == addr {
			return i
		}
	}
	return -1
}
