package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/holisticim/holisticim"
)

// offlineSelect is the paper's core use: an analyst loads a graph and
// asks for seeds. One op is one round of ReadBinary(rmat), EaSyIM k=50
// and OSIM k=50 (l=3) on rmat, and cold IMM k=50 eps=0.1 on ba-wc.
type offlineSelect struct {
	rmatPath, wcPath string
	rmat, wc         *holisticim.Graph
	opts             holisticim.Options
	// want holds the warm-up round's seeds per step: selections are
	// deterministic given the seed, so every timed round must repeat them.
	want map[string][]holisticim.NodeID
}

// oracleMCRuns is the Monte-Carlo budget of the quality oracle. 1000
// runs put the standard error of a ~3.6k-node spread near 0.3%, far
// inside the 5% margin the oracle allows.
const oracleMCRuns = 1000

func (w *offlineSelect) gen(rc *runContext) error {
	var err error
	if w.rmatPath, _, err = writeGraph(rc.dir, specRMAT, rc.seed); err != nil {
		return err
	}
	w.wcPath, _, err = writeGraph(rc.dir, specBAWC, rc.seed)
	w.opts = holisticim.Options{Seed: subSeed(rc.seed, 30)%1000 + 1}
	return err
}

// setup loads the graphs and runs one untimed round: the warm-up, the
// round whose seeds every timed round must repeat, and the one that
// carries the memory checkpoints.
func (w *offlineSelect) setup(rc *runContext) error {
	var err error
	if w.rmat, err = readGraphFile(w.rmatPath); err != nil {
		return err
	}
	if w.wc, err = readGraphFile(w.wcPath); err != nil {
		return err
	}
	_, _, w.want, err = w.round(nil, &rc.mem)
	return err
}

func (w *offlineSelect) teardown() { w.rmat, w.wc = nil, nil }

// offlineSteps lists a round's selections in order.
var offlineSteps = []struct {
	name, layer, metric string
	alg                 holisticim.Algorithm
	onRMAT              bool
}{
	{"easyim", "core", "easyim_select_s", holisticim.AlgEaSyIM, true},
	{"osim", "core", "osim_select_s", holisticim.AlgOSIM, true},
	{"imm", "ris", "imm_select_s", holisticim.AlgIMM, false},
}

// round runs one analyst pass. mem, when set, takes a checkpoint after
// every step with the step's outputs still live; the time that takes is
// not part of the round.
func (w *offlineSelect) round(tr *Tracer, mem *residentMeter) (total time.Duration, steps map[string]time.Duration, seeds map[string][]holisticim.NodeID, err error) {
	steps = make(map[string]time.Duration)
	seeds = make(map[string][]holisticim.NodeID)
	op := tr.newOp()
	root := tr.start(op, 0, "workload", "offline-round")
	var g *holisticim.Graph
	steps["read"] = tr.call(op, root.id(), "graph", "ReadBinary", func() { g, err = readGraphFile(w.rmatPath) })
	if err != nil {
		return 0, nil, nil, err
	}
	var checkpoints time.Duration
	for _, st := range offlineSteps {
		target := w.wc
		if st.onRMAT {
			target = g
		}
		var res holisticim.Result
		steps[st.name] = tr.call(op, root.id(), st.layer, "Select:"+st.name, func() {
			res, err = holisticim.SelectSeedsContext(context.Background(), target, selectK, st.alg, w.opts)
		})
		if err != nil {
			return 0, nil, nil, fmt.Errorf("%s: %w", st.name, err)
		}
		seeds[st.name] = res.Seeds
		if mem != nil {
			before := mem.spent
			mem.checkpoint()
			checkpoints += mem.spent - before
		}
	}
	return root.end(nil) - checkpoints, steps, seeds, nil
}

func (w *offlineSelect) run(rc *runContext, d time.Duration, tr *Tracer) (*phase, error) {
	ph := &phase{windows: newWindowMeter()}
	per := map[string]*samples{}
	start := time.Now()
	for time.Since(start) < d || ph.attempted < 2 {
		total, steps, seeds, err := w.round(tr, nil)
		ph.attempted++
		if err != nil {
			ph.windows.mark()
			ph.fail("round %d: %v", ph.attempted, err)
			continue
		}
		bad := false
		for name, got := range seeds {
			if !slices.Equal(got, w.want[name]) {
				ph.fail("round %d: %s seeds differ from the warm-up round's", ph.attempted, name)
				bad = true
			}
		}
		if bad {
			ph.windows.mark()
			continue
		}
		ph.windows.opDone(ms(total))
		ph.windows.mark()
		for name, dur := range steps {
			if per[name] == nil {
				per[name] = &samples{}
			}
			per[name].add(dur.Seconds())
		}
	}
	for _, st := range offlineSteps {
		if s := per[st.name]; s != nil {
			ph.set(st.metric, s.quantile(25)) // the quiet rounds, as for op_p50_ms
		}
	}
	return ph, nil
}

// verify is the quality oracle, run once because it is deterministic:
// Monte-Carlo estimates of the EaSyIM, OSIM and IMM seed sets on ba-wc.
// EaSyIM must reach 95% of IMM's spread (the paper claims within 5% of
// the best known method), and OSIM must beat opinion-oblivious EaSyIM
// on effective opinion spread under OI-IC.
func (w *offlineSelect) verify(rc *runContext, ph *phase) error {
	ctx := context.Background()
	seedsOf := func(alg holisticim.Algorithm) ([]holisticim.NodeID, error) {
		res, err := holisticim.SelectSeedsContext(ctx, w.wc, selectK, alg, w.opts)
		return res.Seeds, err
	}
	easy, err := seedsOf(holisticim.AlgEaSyIM)
	if err != nil {
		return err
	}
	osim, err := seedsOf(holisticim.AlgOSIM)
	if err != nil {
		return err
	}
	imm := w.want["imm"]
	mc := holisticim.Options{MCRuns: oracleMCRuns, Seed: w.opts.Seed + 7}
	spread := func(seeds []holisticim.NodeID) (float64, error) {
		o := mc
		o.Model = holisticim.ModelIC
		est, err := holisticim.EstimateSpreadContext(ctx, w.wc, seeds, o)
		return est.Spread, err
	}
	opinion := func(seeds []holisticim.NodeID) (float64, error) {
		o := mc
		o.Model = holisticim.ModelOIIC
		est, err := holisticim.EstimateOpinionSpreadContext(ctx, w.wc, seeds, o)
		return est.EffectiveOpinionSpread(1), err
	}
	sEasy, err := spread(easy)
	if err != nil {
		return err
	}
	sIMM, err := spread(imm)
	if err != nil {
		return err
	}
	oOSIM, err := opinion(osim)
	if err != nil {
		return err
	}
	oEasy, err := opinion(easy)
	if err != nil {
		return err
	}
	ratio := sEasy / sIMM
	ph.set("spread_ratio", ratio)
	ph.attempted += 2
	if !(ratio >= 0.95) {
		ph.fail("spread_ratio %.4f < 0.95 (EaSyIM %.1f, IMM %.1f)", ratio, sEasy, sIMM)
	}
	if !(oOSIM >= oEasy) {
		ph.fail("OSIM effective opinion spread %.2f < EaSyIM's %.2f under oi-ic", oOSIM, oEasy)
	}
	return nil
}
