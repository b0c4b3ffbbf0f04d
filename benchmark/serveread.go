package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/cluster"
	"github.com/holisticim/holisticim/internal/service"
)

// serveRead covers online queries against warm sketches in three
// closed-loop stretches: one client straight at the replica for three
// eighths of the budget (the latencies), loadClients clients straight at
// it for as long (the throughput and the per-op costs), then one client
// through an in-process cluster.Router fronting the same replica. No RR sampling or sketch
// build runs during the timed phase.
//
// Latency is read with one client because two clients, the handlers
// serving them and an EaSyIM job are more runnable goroutines than the
// reference box has cores. A request that becomes runnable on the P
// an EaSyIM job occupies waits to be stolen or for the preemption tick,
// which split the job latencies into two modes (5.5 and 8.5 ms); their
// mix moved the p99 between 6.0 and 9.7 ms across runs of one seed.
// With one client every request runs alone and the job latencies have
// one mode.
type serveRead struct {
	graphPath, icPath, ocPath string
	skSeed                    uint64
	g                         *holisticim.Graph
	pool                      [][]int32
	ops                       []readOp

	// Oracle answers, from direct calls on the indexes gen built.
	order   []holisticim.NodeID                // IC index greedy order, k=50
	opinion []holisticim.SketchOpinionEstimate // per pool set, from the OC index
	degree  map[int][]holisticim.NodeID        // degree-discount seeds per k

	stack  *readStack
	cursor atomic.Int64

	mu      sync.Mutex
	easyims []easyimAnswer // the first few async answers, checked in verify
}

type easyimAnswer struct {
	seed  uint64
	seeds []holisticim.NodeID
}

const (
	loadClients   = 2 // = nproc on the reference box
	easyimToCheck = 5
)

func buildSketches(g *holisticim.Graph, skSeed uint64) (ic, oc *holisticim.Sketch, err error) {
	ctx := context.Background()
	o := holisticim.SketchOptions{Epsilon: sketchEpsilon, Seed: skSeed, BuildK: sketchBuildK}
	if ic, err = holisticim.BuildSketch(ctx, g, o); err != nil {
		return nil, nil, err
	}
	o.Model = holisticim.ModelOC
	oc, err = holisticim.BuildSketch(ctx, g, o)
	return ic, oc, err
}

// settle selects every budget in [kmin, kmax] until a whole pass
// triggers no lazy extension (theta(k) is not monotone in k, so a small
// budget can ask for more sets than a large one).
func settle(sk *holisticim.Sketch, kmin, kmax int) error {
	for {
		before := sk.Stats().Extensions
		for k := kmin; k <= kmax; k++ {
			if _, err := sk.Select(context.Background(), k); err != nil {
				return err
			}
		}
		if sk.Stats().Extensions == before {
			return nil
		}
	}
}

func (w *serveRead) gen(rc *runContext) error {
	var err error
	if w.graphPath, w.g, err = writeGraph(rc.dir, specBAWC, rc.seed); err != nil {
		return err
	}
	w.skSeed = sketchSeedFor(rc.seed)
	ic, oc, err := buildSketches(w.g, w.skSeed)
	if err != nil {
		return err
	}
	// Grow the IC index to the largest theta any budget in the mix asks
	// for before publishing it: the timed phase must not sample, and the
	// oracle order below must be the order the replica serves all along.
	// With budgets of minSelectK and up this is normally a no-op.
	if err := settle(ic, minSelectK, selectK); err != nil {
		return err
	}
	w.icPath, w.ocPath = rc.path("ic.hims"), rc.path("oc.hims")
	if err := writeSketch(w.icPath, ic); err != nil {
		return err
	}
	if err := writeSketch(w.ocPath, oc); err != nil {
		return err
	}
	w.pool = genSeedSets(w.g.NumNodes(), rc.seed)
	w.ops = genReadOps(readOpsCount, rc.seed, w.pool, w.skSeed)
	if err := writeJSONFile(rc.path("ops.json"), w.ops); err != nil {
		return err
	}

	res, err := ic.SelectPrefixes(context.Background(), []int{selectK})
	if err != nil {
		return err
	}
	w.order = res[0].Seeds
	w.opinion = make([]holisticim.SketchOpinionEstimate, len(w.pool))
	for i, set := range w.pool {
		if w.opinion[i], err = oc.EstimateOpinion(set); err != nil {
			return err
		}
	}
	w.degree = make(map[int][]holisticim.NodeID)
	for _, k := range degreeKs {
		r, err := holisticim.SelectSeeds(w.g, k, holisticim.AlgDegreeDiscount, holisticim.Options{})
		if err != nil {
			return err
		}
		w.degree[k] = r.Seeds
	}
	return nil
}

// readStack is one replica with its sketches loaded, on a loopback
// listener, plus a router fronting it on a second listener.
type readStack struct {
	srv            *service.Server
	replica, front *endpoint
	direct, routed *client
	stopRouter     context.CancelFunc
}

// startReadStack brings a replica and its router up; tr, when set,
// records a span around each registry load.
func startReadStack(tr *Tracer, graphPath string, sketchPaths ...string) (*readStack, error) {
	op := tr.newOp()
	var srv *service.Server
	var err error
	tr.call(op, 0, "service", "Registry.LoadFile", func() { srv, err = newServer(graphPath, service.Config{}) })
	if err != nil {
		return nil, err
	}
	s := &readStack{srv: srv}
	g, err := srv.Registry().Get(graphName)
	if err != nil {
		s.close()
		return nil, err
	}
	for _, p := range sketchPaths {
		tr.call(op, 0, "service", "SketchRegistry.LoadSnapshot", func() { _, err = srv.Sketches().LoadSnapshot(graphName, g, p) })
		if err != nil {
			s.close()
			return nil, err
		}
	}
	if s.replica, err = serve(srv.Handler()); err != nil {
		s.close()
		return nil, err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: []string{s.replica.url}})
	if err != nil {
		s.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopRouter = cancel
	rt.PollOnce(ctx)
	go rt.Run(ctx)
	if s.front, err = serve(rt.Handler()); err != nil {
		s.close()
		return nil, err
	}
	s.direct = newClient(s.replica.url, loadClients)
	s.routed = newClient(s.front.url, loadClients)
	return s, nil
}

func (s *readStack) close() {
	if s.direct != nil {
		s.direct.close()
		s.routed.close()
	}
	if s.stopRouter != nil {
		s.stopRouter()
	}
	if s.front != nil {
		s.front.close()
	}
	if s.replica != nil {
		s.replica.close()
	}
	s.srv.Close()
}

func (w *serveRead) setup(rc *runContext) error {
	var err error
	if w.stack, err = startReadStack(nil, w.graphPath, w.icPath, w.ocPath); err != nil {
		return err
	}
	// Warm-up: fill the result cache with the three degree-discount
	// answers, compute the memoized greedy order, touch every op kind
	// once, and open the routed path.
	warm := []readOp{degreeOp(degreeKs[0]), degreeOp(degreeKs[1]), degreeOp(degreeKs[2])}
	seen := map[string]bool{opDegree: true}
	for _, op := range w.ops {
		if !seen[op.Kind] {
			seen[op.Kind] = true
			warm = append(warm, op)
		}
	}
	for _, op := range warm {
		if err := w.doOp(w.stack.direct, op, nil, 0, "service"); err != nil {
			return fmt.Errorf("warm-up %s: %w", op.Kind, err)
		}
	}
	return w.doOp(w.stack.routed, warm[len(warm)-1], nil, 0, "cluster")
}

func (w *serveRead) teardown() {
	if w.stack != nil {
		w.stack.close()
		w.stack = nil
	}
}

// doOp sends one op and checks its answer against the oracle. layer
// names the span around the HTTP exchange: "service" straight at the
// replica, "cluster" through the router.
func (w *serveRead) doOp(c *client, op readOp, tr *Tracer, opID int, layer string) error {
	root := tr.start(opID, 0, "workload", "read:"+op.Kind)
	defer root.end(nil)
	if op.Kind == opV1Select {
		var status int
		var data []byte
		var err error
		tr.call(opID, root.id(), layer, "POST /v1/select", func() { status, data, err = c.post(op.Path, op.Body) })
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", op.Path, status, data)
		}
		var resp service.SelectResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if !resp.Sketch || resp.Result == nil {
			return fmt.Errorf("v1 select k=%d was not sketch-served", op.Ks[0])
		}
		if !slices.Equal(resp.Result.Seeds, w.order[:op.Ks[0]]) {
			return fmt.Errorf("v1 select k=%d differs from the direct SelectPrefixes prefix", op.Ks[0])
		}
		return nil
	}

	var resp service.QueryResponse
	var err error
	tr.call(opID, root.id(), layer, "POST /v2/query:"+op.Kind, func() { resp, err = c.query(op.Body) })
	if err != nil {
		return err
	}
	if resp.Answer == nil {
		return fmt.Errorf("%s: response carries no answer", op.Kind)
	}
	members := resp.Answer.Members
	switch op.Kind {
	case opSelect:
		if !resp.Sketch || len(members) != len(op.Ks) {
			return fmt.Errorf("select ks=%v: sketch=%v members=%d", op.Ks, resp.Sketch, len(members))
		}
		for i, k := range op.Ks {
			if members[i].Result == nil || !slices.Equal(members[i].Result.Seeds, w.order[:k]) {
				return fmt.Errorf("select k=%d differs from the direct SelectPrefixes prefix", k)
			}
		}
	case opEstimate:
		if !resp.Sketch || len(members) != len(op.Sets) {
			return fmt.Errorf("estimate: sketch=%v members=%d want %d", resp.Sketch, len(members), len(op.Sets))
		}
		for i, idx := range op.Sets {
			got, want := members[i].Estimate, w.opinion[idx]
			if got == nil || got.OpinionSpread != want.Opinion || got.Spread != want.Spread ||
				got.PositiveSpread != want.Positive || got.NegativeSpread != want.Negative {
				return fmt.Errorf("estimate of pool set %d differs from the direct EstimateOpinion", idx)
			}
		}
	case opDegree:
		k := op.Ks[0]
		if len(members) != 1 || members[0].Result == nil || !slices.Equal(members[0].Result.Seeds, w.degree[k]) {
			return fmt.Errorf("degree-discount k=%d differs from the direct selection", k)
		}
	case opEaSyIM:
		if len(members) != 1 || members[0].Result == nil || len(members[0].Result.Seeds) != easyimJobK {
			return fmt.Errorf("easyim job returned no %d-seed answer", easyimJobK)
		}
		var req service.QueryRequest
		if err := json.Unmarshal([]byte(op.Body), &req); err != nil {
			return err
		}
		w.mu.Lock()
		if len(w.easyims) < easyimToCheck {
			w.easyims = append(w.easyims, easyimAnswer{req.Options.Seed, members[0].Result.Seeds})
		}
		w.mu.Unlock()
	}
	return nil
}

// loop drives one closed-loop stretch of the given client count, cut
// into one-second windows on meter.
func (w *serveRead) loop(c *client, clients int, d time.Duration, tr *Tracer, layer string, ph *phase, meter *windowMeter) {
	var mu sync.Mutex
	stop := meter.everySecond()
	closedLoop(clients, d, &w.cursor, func(_ int, seq int64) {
		op := w.ops[int(seq)%len(w.ops)]
		t := time.Now()
		err := w.doOp(c, op, tr, tr.newOp(), layer)
		took := time.Since(t)
		mu.Lock()
		defer mu.Unlock()
		ph.attempted++
		if err != nil {
			ph.fail("%v", err)
			return
		}
		meter.opDone(ms(took))
	})
	stop()
}

func (w *serveRead) run(rc *runContext, d time.Duration, tr *Tracer) (*phase, error) {
	// The latencies describe the one-client direct stretch, ops_per_s
	// and the per-op costs the loadClients one; the routed stretch
	// reports its own median. The p99 is the upper quartile of some 300
	// EaSyIM jobs: the quiet quarter alone holds too few of them to pin it.
	ph := &phase{windows: newWindowMeter(), wholeTail: true}
	w.loop(w.stack.direct, 1, d*3/8, tr, "service", ph, ph.windows)
	ph.rate = newWindowMeter()
	w.loop(w.stack.direct, loadClients, d*3/8, tr, "service", ph, ph.rate)
	routed := newWindowMeter()
	w.loop(w.stack.routed, 1, d/4, tr, "cluster", ph, routed)
	if q := pooled(routed.quiet(window.medianMS)); len(q.lat) > 0 {
		ph.set("routed_p50_ms", q.lat.median())
	}
	return ph, nil
}

// verify re-runs the first few async EaSyIM answers directly.
func (w *serveRead) verify(rc *runContext, ph *phase) error {
	rc.mem.checkpoint()
	for _, a := range w.easyims {
		ph.attempted++
		res, err := holisticim.SelectSeeds(w.g, easyimJobK, holisticim.AlgEaSyIM, holisticim.Options{Seed: a.seed})
		if err != nil {
			return err
		}
		if !slices.Equal(res.Seeds, a.seeds) {
			ph.fail("easyim job with seed %d differs from the direct selection", a.seed)
		}
	}
	return nil
}
