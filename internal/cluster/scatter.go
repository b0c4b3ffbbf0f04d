package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/service"
)

// handleQuery serves POST /v2/query at the router. Sketch-served select
// batches are SCATTERED: each member goes to its preferred owner in
// parallel and the answers merge back into one batch response. Anything
// else — single members, estimates, cold algorithms, batches the
// cluster holds no matching sketch for — routes whole to the key's
// primary owner with hedged failover, which preserves the replica-side
// planner's batch semantics (a cold batch shares one RR collection; the
// plan says so, and splitting it would both waste kmax-sized work per
// member and change the plan's wording).
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, req, ok := readQuery(w, r)
	if !ok {
		return
	}
	key, q, err := queryKeyOf(req)
	if err == nil && rt.scatterEligible(req.Graph, q) {
		if rt.scatterQuery(w, r, req, key) {
			rt.rm.scatters.Inc()
			return
		}
		// Scatter aborted (a member came back cold or a replica refused):
		// the whole query goes to one owner, which is always correct.
		rt.rm.scatterAborts.Inc()
	}
	rt.routeBody(w, r, key, body)
}

// scatterEligible predicts whether every member of the (normalized)
// batch will be sketch-served: a select batch on an RIS algorithm with a
// matching sketch loaded somewhere in the cluster. The prediction is
// cheap and safe — scatterQuery verifies each member's answer really was
// sketch-served and aborts to whole-query routing otherwise.
func (rt *Router) scatterEligible(graph string, q holisticim.Query) bool {
	if q.Task != holisticim.TaskSelect || len(q.Ks) < 2 {
		return false
	}
	switch q.Algorithm {
	case holisticim.AlgTIMPlus, holisticim.AlgIMM:
	default:
		return false
	}
	o := q.Options
	if o.TIMThetaCap != 0 {
		return false // a θ cap opts out of sketches on the replica side
	}
	return rt.mem.hasSketch(graph, o.Model.RRSemantics(), o.Epsilon, o.Seed)
}

// memberOutcome is one scattered member's result.
type memberOutcome struct {
	member service.QueryMember
	step   holisticim.PlanStep
	ok     bool
}

// scatterQuery fans the batch's members out to their owners and merges
// the answers. Returns false (nothing written) when any member could
// not be served from a sketch synchronously — the caller then routes
// the whole query to one replica instead.
//
// The sub-request shapes are chosen to reproduce the single-node batch
// answer byte-for-byte: a member at k == max(ks) becomes a single-k
// query (the full-selection path with certified θ metrics — exactly
// what SelectPrefixes gives the kmax member), and a member at k <
// max(ks) becomes a two-member batch [k, kmax] whose first member is
// the same greedy prefix, with the same prefix metrics, that the
// original batch would produce. Sketch plan steps do not mention batch
// size, so re-indexing Member is the only merge-side edit needed.
func (rt *Router) scatterQuery(w http.ResponseWriter, r *http.Request, req service.QueryRequest, key string) bool {
	ks := req.Ks
	kmax := 0
	for _, k := range ks {
		if k > kmax {
			kmax = k
		}
	}
	owners, note := rt.mem.rank(key, rt.cfg.Replication)
	if len(owners) == 0 {
		return false
	}

	start := time.Now()
	outcomes := make([]memberOutcome, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			outcomes[i] = rt.scatterMember(r, req, k, kmax, rotated(owners, i))
		}(i, k)
	}
	wg.Wait()

	steps := make([]holisticim.PlanStep, len(ks))
	members := make([]service.QueryMember, len(ks))
	seedsDone := 0
	for i, out := range outcomes {
		if !out.ok {
			return false
		}
		out.step.Member = i
		steps[i] = out.step
		members[i] = out.member
		if out.member.Result != nil && len(out.member.Result.Seeds) > seedsDone {
			seedsDone = len(out.member.Result.Seeds)
		}
	}
	plan := service.Plan{Steps: steps}
	answer := &service.QueryAnswer{
		Task:    string(holisticim.TaskSelect),
		Plan:    plan,
		Members: members,
		TookMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	w.Header().Set("X-Router-Scatter", "1")
	if note != "" {
		w.Header().Set("X-Router-Note", note)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(service.QueryResponse{
		State: service.StateDone, Sketch: true, Plan: &plan,
		SeedsDone: seedsDone, Members: len(members), MembersDone: len(members),
		Answer: answer,
	})
	return true
}

// rotated shifts candidates by i so member i prefers owner i mod N —
// that is what actually spreads a batch across the owner set — while
// keeping every other candidate as failover.
func rotated(candidates []string, i int) []string {
	n := len(candidates)
	if n == 0 {
		return nil
	}
	off := i % n
	out := make([]string, 0, n)
	out = append(out, candidates[off:]...)
	out = append(out, candidates[:off]...)
	return out
}

// scatterMember runs one member's sub-query against its candidate
// replicas and validates that it was served synchronously from a
// sketch. A replica that answers 202 instead created a cold job — the
// job is canceled (best effort) and the scatter aborts.
func (rt *Router) scatterMember(r *http.Request, req service.QueryRequest, k, kmax int, candidates []string) memberOutcome {
	sub := req
	if k == kmax {
		sub.K = kmax
		sub.Ks = nil
	} else {
		sub.K = 0
		sub.Ks = []int{k, kmax}
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return memberOutcome{}
	}
	res, err := rt.tryCandidates(r.Context(), candidates, http.MethodPost, "/v2/query", body, "application/json")
	if err != nil || res == nil {
		return memberOutcome{}
	}
	var qr service.QueryResponse
	if uerr := json.Unmarshal(res.body, &qr); uerr != nil {
		return memberOutcome{}
	}
	if res.status == http.StatusAccepted && qr.JobID != "" {
		// The replica planned a cold job for this member — abort the
		// scatter and free the worker slot we just occupied.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, _ = rt.forward(ctx, res.replica, http.MethodDelete, "/v2/jobs/"+qr.JobID, nil, "")
		}()
		return memberOutcome{}
	}
	if res.status != http.StatusOK || qr.State != service.StateDone || !qr.Sketch ||
		qr.Answer == nil || len(qr.Answer.Members) == 0 || len(qr.Answer.Plan.Steps) == 0 {
		return memberOutcome{}
	}
	return memberOutcome{member: qr.Answer.Members[0], step: qr.Answer.Plan.Steps[0], ok: true}
}
