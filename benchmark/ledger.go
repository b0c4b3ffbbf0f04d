package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/admission"
	"github.com/holisticim/holisticim/internal/cluster"
	"github.com/holisticim/holisticim/internal/core"
	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/heuristics"
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/obs"
	"github.com/holisticim/holisticim/internal/ris"
	"github.com/holisticim/holisticim/internal/service"
)

// The ledger is the per-layer half of a traced run: it calls each
// layer's public functions on the standard inputs, one span per call,
// and derives the per-layer metrics from those spans. It runs after the
// workload so every traced run reports every row whichever workload it
// was asked for. README.md maps each group of rows to the end-to-end
// metric and workload it should move.

var ledgerMetrics = []metricDef{
	{Name: "graph.read_binary_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ all (largest @ offline-select)"},
	{Name: "graph.read_binary_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "setup_s @ all"},
	{Name: "graph.write_binary_ms", Unit: "ms", Better: "lower", Moves: "cluster.publish_ms"},
	{Name: "graph.fingerprint_ms", Unit: "ms", Better: "lower", Moves: "mutate_p50_ms @ serve-churn (one per snapshot)"},

	{Name: "core.easyim_assign_ms", Unit: "ms", Better: "lower", Moves: "easyim_select_s, op_p50_ms @ offline-select"},
	{Name: "core.osim_assign_ms", Unit: "ms", Better: "lower", Moves: "osim_select_s, op_p50_ms @ offline-select"},
	{Name: "core.assign_medges_per_s", Unit: "Medges/s", Better: "higher", Moves: "easyim_select_s @ offline-select"},
	{Name: "core.probe_share", Unit: "ratio", Better: "lower", Moves: "share of ScoreGreedy.Select outside Assign (the MC probes)"},
	{Name: "core.select_alloc_mb", Unit: "MB", Better: "lower", Moves: "resident_mb, alloc_mb_per_op @ offline-select"},

	{Name: "diffusion.mc_ic_runs_per_s", Unit: "1/s", Better: "higher", Moves: "easyim_select_s via core.probe_share @ offline-select"},
	{Name: "diffusion.mc_oi_runs_per_s", Unit: "1/s", Better: "higher", Moves: "osim_select_s via core.probe_share @ offline-select"},
	{Name: "diffusion.mc_alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb_per_op @ offline-select"},

	{Name: "ris.sample_sets_per_s", Unit: "1/s", Better: "higher", Moves: "imm_select_s @ offline-select; sketch_build_s @ sketch-lifecycle (ba-wc)"},
	{Name: "ris.sample_nodes_per_s", Unit: "1/s", Better: "higher", Moves: "sketch_build_s @ sketch-lifecycle (ba-p10)"},
	{Name: "ris.avg_set_size", Unit: "count", Better: "lower", Moves: "input regime check: ~8 on ba-wc"},
	{Name: "ris.bytes_per_set", Unit: "B", Better: "lower", Moves: "resident_mb @ offline-select, sketch-lifecycle"},
	{Name: "ris.allocs_per_set", Unit: "count", Better: "lower", Moves: "alloc_mb_per_op, cpu_ms_per_op @ sketch-lifecycle"},
	{Name: "ris.max_coverage_ms", Unit: "ms", Better: "lower", Moves: "imm_select_s @ offline-select"},
	{Name: "ris.imm_theta", Unit: "count", Better: "lower", Moves: "imm_select_s, resident_mb @ offline-select"},
	{Name: "ris.imm_sampling_share", Unit: "ratio", Better: "lower", Moves: "share of IMM.Select spent sampling"},
	{Name: "ris.replace_sets_ms", Unit: "ms", Better: "lower", Moves: "repair_lag_p50_ms @ serve-churn"},

	{Name: "sketch.build_wc_ms", Unit: "ms", Better: "lower", Moves: "sketch_build_s @ sketch-lifecycle; setup_s @ serve-churn"},
	{Name: "sketch.build_oc_ms", Unit: "ms", Better: "lower", Moves: "sketch_build_s @ sketch-lifecycle"},
	{Name: "sketch.build_p10_ms", Unit: "ms", Better: "lower", Moves: "sketch_build_s @ sketch-lifecycle"},
	{Name: "sketch.sets", Unit: "count", Better: "lower", Moves: "resident_mb @ sketch-lifecycle"},
	{Name: "sketch.bytes_per_set", Unit: "B", Better: "lower", Moves: "resident_mb @ sketch-lifecycle, serve-read"},
	{Name: "sketch.build_allocs_per_set", Unit: "count", Better: "lower", Moves: "alloc_mb_per_op @ sketch-lifecycle"},
	{Name: "sketch.first_select_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sketch-lifecycle; setup_s @ serve-read"},
	{Name: "sketch.memo_select_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "sketch.select_prefixes_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "sketch.extend_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sketch-lifecycle"},
	{Name: "sketch.estimate_opinion_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, op_tail_ms @ serve-read"},
	{Name: "sketch.estimate_spread_us", Unit: "us", Better: "lower", Moves: "none today: no workload serves it"},
	{Name: "sketch.save_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sketch-lifecycle"},
	{Name: "sketch.load_ms", Unit: "ms", Better: "lower", Moves: "sketch_load_s @ sketch-lifecycle; setup_s @ serve-read"},
	{Name: "sketch.load_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "sketch_load_s @ sketch-lifecycle"},
	{Name: "sketch.snapshot_mb", Unit: "MB", Better: "lower", Moves: "sketch_load_s @ sketch-lifecycle"},
	{Name: "sketch.repair_ms", Unit: "ms", Better: "lower", Moves: "repair_lag_p50_ms, op_tail_ms @ serve-churn"},
	{Name: "sketch.repair_resampled_sets", Unit: "count", Better: "lower", Moves: "repair_lag_p50_ms @ serve-churn"},
	{Name: "sketch.repair_rebuild_ratio", Unit: "ratio", Better: "lower", Moves: "repair cost / rebuild cost"},
	{Name: "sketch.matches_stale_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-churn while the index is stale"},

	{Name: "live.apply_ms", Unit: "ms", Better: "lower", Moves: "mutate_p50_ms @ serve-churn"},
	{Name: "live.apply_us_per_op", Unit: "us", Better: "lower", Moves: "mutate_p50_ms @ serve-churn"},
	{Name: "live.dirty_nodes", Unit: "count", Better: "lower", Moves: "sketch.repair_resampled_sets"},

	{Name: "holisticim.plan_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, ops_per_s @ serve-read"},
	{Name: "holisticim.run_sketch_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, ops_per_s @ serve-read"},
	{Name: "holisticim.run_overhead_us", Unit: "us", Better: "lower", Moves: "Run minus the direct SelectPrefixes"},
	{Name: "holisticim.fingerprint_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read (cache key)"},

	{Name: "service.sketch_query_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "service.estimate_query_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "service.v1_select_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "service.cache_hit_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "service.job_roundtrip_p50_ms", Unit: "ms", Better: "lower", Moves: "op_tail_ms @ serve-read"},
	{Name: "service.job_overhead_ms", Unit: "ms", Better: "lower", Moves: "job round trip minus the direct selection"},
	{Name: "service.decode_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "service.encode_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "service.response_bytes", Unit: "B", Better: "lower", Moves: "service.encode_us, http_overhead_us"},
	{Name: "service.handler_us", Unit: "us", Better: "lower", Moves: "op_p50_ms @ serve-read (recorder, no socket)"},
	{Name: "service.http_overhead_us", Unit: "us", Better: "lower", Moves: "loopback p50 minus recorder p50"},
	{Name: "service.unattributed_share", Unit: "ratio", Better: "lower", Moves: "1 - (decode+plan+run_sketch+encode+http_overhead)/sketch_query_p50"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_p50_ms @ serve-read"},
	{Name: "service.sketch_fastpath_hits", Unit: "count", Better: "higher", Moves: "a drop means queries left the fast path"},
	{Name: "service.jobs_shed", Unit: "count", Better: "lower", Moves: "a guard: must stay 0"},
	{Name: "service.load_snapshot_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ serve-read"},
	{Name: "service.mutate_handler_ms", Unit: "ms", Better: "lower", Moves: "mutate_p50_ms @ serve-churn"},

	{Name: "admission.allow_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s @ serve-read (~0 today; a guard)"},
	{Name: "admission.allow_ns_at_lru_bound", Unit: "ns", Better: "lower", Moves: "ops_per_s @ serve-read under client-id churn"},
	{Name: "admission.throttled", Unit: "count", Better: "lower", Moves: "a guard: must stay 0"},

	{Name: "obs.observe_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms @ serve-read"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Moves: "none: scrapes are off the request path"},
	{Name: "obs.scrape_bytes", Unit: "B", Better: "lower", Moves: "obs.scrape_ms"},

	{Name: "cluster.route_hop_us", Unit: "us", Better: "lower", Moves: "routed_p50_ms @ serve-read"},
	{Name: "cluster.publish_ms", Unit: "ms", Better: "lower", Moves: "none: publishing is offline"},
	{Name: "cluster.warm_load_ms", Unit: "ms", Better: "lower", Moves: "replica cold-start; setup_s @ serve-read by proxy"},
	{Name: "cluster.ring_owners_ns", Unit: "ns", Better: "lower", Moves: "routed_p50_ms @ serve-read"},

	{Name: "heuristics.irie_select_ms", Unit: "ms", Better: "lower", Moves: "cache fill cost @ serve-read"},
	{Name: "heuristics.degree_discount_select_ms", Unit: "ms", Better: "lower", Moves: "service.cache_hit_* fill cost @ serve-read"},
}

// ledger runs probes and records their rows.
type ledger struct {
	tr  *Tracer
	res *WorkloadResult
	ctx context.Context
	dir string
}

func (l *ledger) put(name string, v float64) { l.res.putLayer(name, v) }

// times calls fn reps times, one span each, and returns the durations in
// milliseconds.
func (l *ledger) times(layer, name string, reps int, fn func()) samples {
	op := l.tr.newOp()
	var out samples
	for i := 0; i < reps; i++ {
		out.addDur(l.tr.call(op, 0, layer, name, fn))
	}
	return out
}

// perCallNS times one span around `calls` back-to-back invocations of a
// call too short to time singly, and returns nanoseconds per call.
func (l *ledger) perCallNS(layer, name string, calls int, fn func(i int)) float64 {
	a := l.tr.start(l.tr.newOp(), 0, layer, name)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	d := a.end(map[string]float64{"calls": float64(calls)})
	return float64(d.Nanoseconds()) / float64(calls)
}

func must(err error) {
	if err != nil {
		panic(ledgerError{err})
	}
}

// ledgerError carries a probe failure out of the nested closures.
type ledgerError struct{ err error }

// runLedger generates the standard inputs from the run's seed, runs
// every probe and fills res.PerLayer.
func runLedger(rc *runContext, res *WorkloadResult, tr *Tracer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(ledgerError)
			if !ok {
				panic(r)
			}
			err = le.err
		}
	}()
	l := &ledger{tr: tr, res: res, ctx: context.Background(), dir: rc.path("ledger")}
	must(os.MkdirAll(l.dir, 0o755))

	_, rmat, err := writeGraph(l.dir, specRMAT, rc.seed)
	must(err)
	wcPath, wc, err := writeGraph(l.dir, specBAWC, rc.seed)
	must(err)
	_, p10, err := writeGraph(l.dir, specBAP10, rc.seed)
	must(err)
	skSeed := sketchSeedFor(rc.seed)

	l.graphLayer(rmat)
	l.coreLayer(rmat)
	l.risLayer(wc, p10, skSeed)
	ic, oc := l.sketchLayer(wc, p10, skSeed)
	l.diffusionLayer(wc, ic)
	l.liveAndRepair(wc, ic, rc.seed)
	l.heuristicsLayer(wc)
	l.plannerLayer(wc, ic, skSeed)
	l.servingLayers(rc.seed, wcPath, wc, ic, oc, skSeed)
	l.smallLayers()
	return nil
}

func (l *ledger) graphLayer(g *holisticim.Graph) {
	var buf bytes.Buffer
	w := l.times("graph", "WriteBinary", 3, func() {
		buf.Reset()
		must(graph.WriteBinary(&buf, g))
	})
	r := l.times("graph", "ReadBinary", 5, func() {
		_, err := graph.ReadBinary(bytes.NewReader(buf.Bytes()))
		must(err)
	})
	f := l.times("graph", "Fingerprint", 3, func() { g.Fingerprint() })
	l.put("graph.write_binary_ms", w.median())
	l.put("graph.read_binary_ms", r.median())
	l.put("graph.read_binary_mb_per_s", float64(buf.Len())/(1<<20)/(r.median()/1000))
	l.put("graph.fingerprint_ms", f.median())
}

func (l *ledger) coreLayer(g *holisticim.Graph) {
	const pathLen, k = 3, 20
	easy := core.NewEaSyIM(g, pathLen, core.WeightProb)
	osim := core.NewOSIM(g, pathLen, core.WeightProb, 1)
	out := make([]float64, g.NumNodes())
	ea := l.times("core", "EaSyIM.Assign", 5, func() { easy.Assign(nil, out) })
	oa := l.times("core", "OSIM.Assign", 5, func() { osim.Assign(nil, out) })
	l.put("core.easyim_assign_ms", ea.median())
	l.put("core.osim_assign_ms", oa.median())
	l.put("core.assign_medges_per_s", float64(pathLen)*float64(g.NumEdges())/1e6/(ea.median()/1000))

	sg := core.NewScoreGreedy(easy, core.ScoreGreedyOptions{
		Policy: core.PolicyMCMajority, ProbeModel: diffusion.NewIC(g), Seed: 1})
	var sel samples
	mb, _ := allocsOf(func() {
		sel = l.times("core", "ScoreGreedy.Select", 1, func() {
			_, err := sg.Select(l.ctx, k)
			must(err)
		})
	})
	l.put("core.probe_share", clamp01(1-k*ea.median()/sel.median()))
	l.put("core.select_alloc_mb", mb)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func (l *ledger) risLayer(wc, p10 *holisticim.Graph, seed uint64) {
	const wcSets, p10Sets, replaced = 200000, 40000, 1000
	workers := runtime.GOMAXPROCS(0)
	col := ris.NewCollection(wc, ris.ModelIC)
	var gen samples
	_, objs := allocsOf(func() {
		gen = l.times("ris", "Collection.GenerateParallelCtx:ba-wc", 1, func() {
			must(col.GenerateParallelCtx(l.ctx, wcSets, seed, workers))
		})
	})
	nodes := 0
	for _, s := range col.Sets() {
		nodes += len(s)
	}
	l.put("ris.sample_sets_per_s", wcSets/(gen.median()/1000))
	l.put("ris.avg_set_size", float64(nodes)/wcSets)
	l.put("ris.bytes_per_set", float64(col.MemoryFootprint())/wcSets)
	l.put("ris.allocs_per_set", float64(objs)/wcSets)

	big := ris.NewCollection(p10, ris.ModelIC)
	genBig := l.times("ris", "Collection.GenerateParallelCtx:ba-p10", 1, func() {
		must(big.GenerateParallelCtx(l.ctx, p10Sets, seed, workers))
	})
	nodes = 0
	for _, s := range big.Sets() {
		nodes += len(s)
	}
	l.put("ris.sample_nodes_per_s", float64(nodes)/(genBig.median()/1000))

	mc := l.times("ris", "Collection.MaxCoverage", 3, func() { col.MaxCoverage(selectK) })
	l.put("ris.max_coverage_ms", mc.median())

	// Replace the first `replaced` sets with later sets of the same
	// stream, as Repair does after resampling.
	sampler := ris.NewSampler(wc, ris.ModelIC)
	ids := make([]int32, replaced)
	rep := l.times("ris", "Collection.ReplaceSets", 3, func() {
		sets := make([][]graph.NodeID, replaced)
		for i := range ids {
			ids[i] = int32(i)
			sets[i] = sampler.Sample(seed, uint64(wcSets+i))
		}
		col.ReplaceSets(ids, sets)
	})
	l.put("ris.replace_sets_ms", rep.median())

	var res holisticim.Result
	imm := l.times("ris", "IMM.Select", 1, func() {
		var err error
		res, err = ris.NewIMM(wc, ris.ModelIC, ris.TIMOptions{Epsilon: sketchEpsilon, Seed: seed}).Select(l.ctx, selectK)
		must(err)
	})
	theta := int(res.Metrics["theta"])
	// IMM samples on one goroutine (GenerateCtx), so its sampling share is
	// the serial cost of theta sets over the whole selection.
	serial := l.times("ris", "Collection.GenerateCtx", 1, func() {
		must(ris.NewCollection(wc, ris.ModelIC).GenerateCtx(l.ctx, theta, seed))
	})
	l.put("ris.imm_theta", float64(theta))
	l.put("ris.imm_sampling_share", clamp01(serial.median()/imm.median()))
}

func (l *ledger) sketchLayer(wc, p10 *holisticim.Graph, seed uint64) (ic, oc *holisticim.Sketch) {
	build := func(name string, g *holisticim.Graph, model holisticim.ModelKind) (*holisticim.Sketch, float64, uint64) {
		var sk *holisticim.Sketch
		var d samples
		_, objs := allocsOf(func() {
			d = l.times("sketch", "Build:"+name, 1, func() {
				var err error
				sk, err = holisticim.BuildSketch(l.ctx, g, holisticim.SketchOptions{
					Model: model, Epsilon: sketchEpsilon, Seed: seed, BuildK: sketchBuildK})
				must(err)
			})
		})
		return sk, d.median(), objs
	}
	ic, icMS, icObjs := build("wc", wc, holisticim.ModelIC)
	oc, ocMS, _ := build("oc", wc, holisticim.ModelOC)
	_, p10MS, _ := build("p10", p10, holisticim.ModelIC)
	st := ic.Stats()
	l.put("sketch.build_wc_ms", icMS)
	l.put("sketch.build_oc_ms", ocMS)
	l.put("sketch.build_p10_ms", p10MS)
	l.put("sketch.sets", float64(st.Sets))
	l.put("sketch.bytes_per_set", float64(st.MemoryBytes)/float64(st.Sets))
	l.put("sketch.build_allocs_per_set", float64(icObjs)/float64(st.Sets))

	var snap bytes.Buffer
	save := l.times("sketch", "Save", 3, func() {
		snap.Reset()
		must(ic.Save(&snap))
	})
	var loaded *holisticim.Sketch
	load := l.times("sketch", "Load", 3, func() {
		var err error
		loaded, err = holisticim.ReadSketch(bytes.NewReader(snap.Bytes()), wc)
		must(err)
	})
	mb := float64(snap.Len()) / (1 << 20)
	l.put("sketch.save_ms", save.median())
	l.put("sketch.load_ms", load.median())
	l.put("sketch.snapshot_mb", mb)
	l.put("sketch.load_mb_per_s", mb/(load.median()/1000))

	first := l.times("sketch", "Select:first", 1, func() {
		_, err := loaded.Select(l.ctx, selectK)
		must(err)
	})
	i := 0
	memo := l.times("sketch", "Select:memo", 200, func() {
		i++
		_, err := loaded.Select(l.ctx, 1+i%selectK)
		must(err)
	})
	prefixes := l.times("sketch", "SelectPrefixes", 200, func() {
		_, err := loaded.SelectPrefixes(l.ctx, churnKs)
		must(err)
	})
	extend := l.times("sketch", "Select:extend", 1, func() {
		_, err := loaded.Select(l.ctx, extendK)
		must(err)
	})
	l.put("sketch.first_select_ms", first.median())
	l.put("sketch.memo_select_us", memo.median()*1000)
	l.put("sketch.select_prefixes_us", prefixes.median()*1000)
	l.put("sketch.extend_ms", extend.median())

	pool := genSeedSets(wc.NumNodes(), seed)
	i = 0
	estO := l.times("sketch", "EstimateOpinion", 50, func() {
		i++
		_, err := oc.EstimateOpinion(pool[i%len(pool)])
		must(err)
	})
	estS := l.times("sketch", "EstimateSpread", 50, func() {
		i++
		ic.EstimateSpread(pool[i%len(pool)])
	})
	l.put("sketch.estimate_opinion_us", estO.median()*1000)
	l.put("sketch.estimate_spread_us", estS.median()*1000)
	return ic, oc
}

func (l *ledger) diffusionLayer(wc *holisticim.Graph, ic *holisticim.Sketch) {
	const runs = 300
	sel, err := ic.Select(l.ctx, selectK)
	must(err)
	var icMS samples
	mb, _ := allocsOf(func() {
		icMS = l.times("diffusion", "MonteCarlo:IC", 1, func() {
			diffusion.MonteCarlo(diffusion.NewIC(wc), sel.Seeds, diffusion.MCOptions{Runs: runs, Seed: 1})
		})
	})
	oiMS := l.times("diffusion", "MonteCarlo:OI", 1, func() {
		diffusion.MonteCarlo(diffusion.NewOI(wc, diffusion.LayerIC), sel.Seeds, diffusion.MCOptions{Runs: runs, Seed: 1})
	})
	l.put("diffusion.mc_ic_runs_per_s", runs/(icMS.median()/1000))
	l.put("diffusion.mc_oi_runs_per_s", runs/(oiMS.median()/1000))
	l.put("diffusion.mc_alloc_mb", mb)
}

func toLiveOps(req service.MutateRequest) []live.EdgeOp {
	ops := make([]live.EdgeOp, len(req.Ops))
	for i, o := range req.Ops {
		ops[i] = live.EdgeOp{Op: live.OpKind(o.Op), From: o.From, To: o.To, P: o.P, Phi: o.Phi, W: o.W}
	}
	return ops
}

// liveAndRepair applies mutation batches to ba-wc and repairs a copy of
// the IC index after each, the serve-churn write path without HTTP.
func (l *ledger) liveAndRepair(wc *holisticim.Graph, ic *holisticim.Sketch, seed uint64) {
	const batches = 5
	var snap bytes.Buffer
	must(ic.Save(&snap))
	idx, err := holisticim.ReadSketch(bytes.NewReader(snap.Bytes()), wc)
	must(err)
	muts := genMutations(wc, batches+1, mutationOps, seed)

	lv := live.Wrap(wc, live.Options{})
	var apply, repair, dirty, resampled samples
	op := l.tr.newOp()
	for _, m := range muts[:batches] {
		var res live.BatchResult
		apply.addDur(l.tr.call(op, 0, "live", "Graph.Apply", func() {
			var err error
			res, err = lv.Apply(l.ctx, toLiveOps(m), live.ApplyOptions{})
			must(err)
		}))
		var st holisticim.SketchRepairStats
		repair.addDur(l.tr.call(op, 0, "sketch", "Repair", func() {
			var err error
			st, err = idx.Repair(l.ctx, lv.Graph(), res.Dirty, res.Version, holisticim.SketchRepairOptions{})
			must(err)
		}))
		dirty.add(float64(len(res.Dirty)))
		resampled.add(float64(st.Resampled))
	}
	l.put("live.apply_ms", apply.median())
	l.put("live.apply_us_per_op", apply.median()*1000/mutationOps)
	l.put("live.dirty_nodes", dirty.median())
	l.put("sketch.repair_ms", repair.median())
	l.put("sketch.repair_resampled_sets", resampled.median())
	l.put("sketch.repair_rebuild_ratio", repair.median()/l.res.PerLayer["sketch.build_wc_ms"].Value)

	// One more batch leaves the index stale against the newest snapshot:
	// node and arc counts can match, so Matches must hash the content.
	_, err = lv.Apply(l.ctx, toLiveOps(service.MutateRequest{Ops: reweightOnly(muts[batches])}), live.ApplyOptions{})
	must(err)
	stale := lv.Graph()
	m := l.times("sketch", "Matches:stale", 5, func() {
		if idx.Matches(stale, ris.ModelIC) {
			must(fmt.Errorf("stale index matched a mutated snapshot"))
		}
	})
	l.put("sketch.matches_stale_us", m.median()*1000)
}

// reweightOnly keeps a batch's reweights (arc count unchanged), so the
// stale-Matches probe cannot be answered by the cheap size comparison.
func reweightOnly(req service.MutateRequest) []service.EdgeOpSpec {
	var out []service.EdgeOpSpec
	for _, o := range req.Ops {
		if o.Op == "reweight" {
			out = append(out, o)
		}
	}
	return out
}

func (l *ledger) heuristicsLayer(wc *holisticim.Graph) {
	irie := l.times("heuristics", "IRIE.Select", 1, func() {
		_, err := heuristics.NewIRIE(wc, 0, 0, 0).Select(l.ctx, selectK)
		must(err)
	})
	dd := l.times("heuristics", "DegreeDiscount.Select", 5, func() {
		_, err := heuristics.NewDegreeDiscount(wc, graph.MeanEdgeProb(wc)).Select(l.ctx, selectK)
		must(err)
	})
	l.put("heuristics.irie_select_ms", irie.median())
	l.put("heuristics.degree_discount_select_ms", dd.median())
}

func (l *ledger) plannerLayer(wc *holisticim.Graph, ic *holisticim.Sketch, skSeed uint64) {
	q := holisticim.Query{Algorithm: holisticim.AlgIMM, Ks: churnKs,
		Options: holisticim.Options{Epsilon: sketchEpsilon, Seed: skSeed, Sketch: ic}}
	plan := l.times("holisticim", "PlanQuery", 200, func() {
		p, err := holisticim.PlanQuery(wc, q)
		must(err)
		if !p.SketchOnly() {
			must(fmt.Errorf("planner did not route the probe query to the sketch"))
		}
	})
	run := l.times("holisticim", "Run", 200, func() {
		_, err := holisticim.Run(l.ctx, wc, q)
		must(err)
	})
	direct := l.times("sketch", "SelectPrefixes", 200, func() {
		_, err := ic.SelectPrefixes(l.ctx, churnKs)
		must(err)
	})
	fp := l.times("holisticim", "Query.Fingerprint", 200, func() { _ = q.Fingerprint() })
	l.put("holisticim.plan_us", plan.median()*1000)
	l.put("holisticim.run_sketch_us", run.median()*1000)
	l.put("holisticim.run_overhead_us", (run.median()-direct.median())*1000)
	l.put("holisticim.fingerprint_us", fp.median()*1000)
}

// servingLayers probes the replica and the router with one client and
// no concurrency, so the per-request budget is not blurred by queueing.
func (l *ledger) servingLayers(seed uint64, wcPath string, wc *holisticim.Graph, ic, oc *holisticim.Sketch, skSeed uint64) {
	const reps, jobs = 200, 10
	icPath, ocPath := l.dir+"/ic.hims", l.dir+"/oc.hims"
	must(writeSketch(icPath, ic))
	must(writeSketch(ocPath, oc))

	// cluster: publish to a store, then warm-load a cold replica from it.
	store, err := cluster.OpenStore(l.dir + "/store")
	must(err)
	pub := l.times("cluster", "Store.Publish", 1, func() {
		_, err := store.PublishGraph(graphName, wc, 0)
		must(err)
		_, err = store.PublishSketch(graphName, ic)
		must(err)
	})
	cold := service.New(service.Config{ColdStart: true})
	warm := l.times("cluster", "Watcher.SyncOnce", 1, func() {
		_, err := cluster.NewWatcher(store, cold, 0).SyncOnce(l.ctx)
		must(err)
	})
	cold.Close()
	l.put("cluster.publish_ms", pub.median())
	l.put("cluster.warm_load_ms", warm.median())

	stack, err := startReadStack(l.tr, wcPath, icPath, ocPath)
	must(err)
	defer stack.close()
	l.put("service.load_snapshot_ms", spanDurations(l.tr.snapshot(), "service", "SketchRegistry.LoadSnapshot").median())

	pool := genSeedSets(wc.NumNodes(), seed)
	ops := genReadOps(4096, seed, pool, skSeed)
	byKind := map[string][]readOp{}
	for _, op := range ops {
		byKind[op.Kind] = append(byKind[op.Kind], op)
	}
	for _, k := range degreeKs { // fill the cache, as serve-read's warm-up does
		_, err := stack.direct.query(degreeOp(k).Body)
		must(err)
	}
	probe := func(c *client, layer, kind string, n int) samples {
		i := 0
		return l.times(layer, "POST:"+kind, n, func() {
			op := byKind[kind][i%len(byKind[kind])]
			i++
			if kind == opV1Select {
				status, data, err := c.post(op.Path, op.Body)
				must(err)
				if status != http.StatusOK {
					must(fmt.Errorf("%s: status %d: %s", op.Path, status, data))
				}
				return
			}
			_, err := c.query(op.Body)
			must(err)
		})
	}
	probe(stack.direct, "service", opSelect, 20) // warm the connection and the greedy order
	sel := probe(stack.direct, "service", opSelect, reps)
	est := probe(stack.direct, "service", opEstimate, reps)
	v1 := probe(stack.direct, "service", opV1Select, reps)
	hit := probe(stack.direct, "service", opDegree, reps)
	job := probe(stack.direct, "service", opEaSyIM, jobs)
	probe(stack.routed, "cluster", opSelect, 20)
	routed := probe(stack.routed, "cluster", opSelect, reps)
	directJob := l.times("core", "Select:easyim-k5", 5, func() {
		_, err := holisticim.SelectSeeds(wc, easyimJobK, holisticim.AlgEaSyIM, holisticim.Options{Seed: 1})
		must(err)
	})
	l.put("service.sketch_query_p50_us", sel.median()*1000)
	l.put("service.estimate_query_p50_us", est.median()*1000)
	l.put("service.v1_select_p50_us", v1.median()*1000)
	l.put("service.cache_hit_p50_us", hit.median()*1000)
	l.put("service.job_roundtrip_p50_ms", job.median())
	l.put("service.job_overhead_ms", job.median()-directJob.median())
	l.put("cluster.route_hop_us", (routed.median()-sel.median())*1000)

	// The same select requests through the handler with no socket, and
	// the JSON work either side of it.
	handler := stack.srv.Handler()
	i := 0
	var body []byte
	rec := l.times("service", "Handler.ServeHTTP", reps, func() {
		op := byKind[opSelect][i%len(byKind[opSelect])]
		i++
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, op.Path, strings.NewReader(op.Body)))
		if w.Code != http.StatusOK {
			must(fmt.Errorf("recorder %s: status %d", op.Path, w.Code))
		}
		body = w.Body.Bytes()
	})
	dec := l.times("service", "json:decode QueryRequest", reps, func() {
		op := byKind[opSelect][i%len(byKind[opSelect])]
		i++
		var req service.QueryRequest
		d := json.NewDecoder(strings.NewReader(op.Body))
		d.DisallowUnknownFields()
		must(d.Decode(&req))
	})
	var resp service.QueryResponse
	must(json.Unmarshal(body, &resp))
	enc := l.times("service", "json:encode QueryResponse", reps, func() {
		must(json.NewEncoder(&bytes.Buffer{}).Encode(resp))
	})
	overhead := sel.median() - rec.median()
	attributed := dec.median() + enc.median() + overhead +
		(l.res.PerLayer["holisticim.plan_us"].Value+l.res.PerLayer["holisticim.run_sketch_us"].Value)/1000
	l.put("service.handler_us", rec.median()*1000)
	l.put("service.http_overhead_us", overhead*1000)
	l.put("service.decode_us", dec.median()*1000)
	l.put("service.encode_us", enc.median()*1000)
	l.put("service.response_bytes", float64(len(body)))
	l.put("service.unattributed_share", 1-attributed/sel.median())

	scrape := l.times("obs", "GET /metrics", 5, func() {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		body = w.Body.Bytes()
	})
	l.put("obs.scrape_ms", scrape.median())
	l.put("obs.scrape_bytes", float64(len(body)))

	st := stack.srv.Stats()
	l.put("service.cache_hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
	l.put("service.sketch_fastpath_hits", float64(st.SketchFastPathHits))
	l.put("service.jobs_shed", float64(st.JobsShed))
	l.put("admission.throttled", float64(st.RequestsThrottled))

	// Last, because it makes the replica's sketches stale.
	muts := genMutations(wc, 3, mutationOps, seed)
	i = 0
	mut := l.times("service", "POST /v1/graphs/{name}/edges", len(muts), func() {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/graphs/"+graphName+"/edges",
			strings.NewReader(mustJSON(muts[i]))))
		i++
		if w.Code != http.StatusOK {
			must(fmt.Errorf("recorder mutate: status %d: %s", w.Code, w.Body))
		}
	})
	l.put("service.mutate_handler_ms", mut.median())
}

// smallLayers times the calls that cost nanoseconds: one span around a
// loop of them.
func (l *ledger) smallLayers() {
	const calls = 200000
	now := time.Now()
	lim := admission.NewLimiter(admission.LimiterConfig{RPS: 1e12, Burst: 1e12})
	l.put("admission.allow_ns", l.perCallNS("admission", "Limiter.Allow", calls, func(int) { lim.Allow("client", now) }))

	// Twice as many client ids as the table holds: every call evicts.
	const table = 4096
	ids := make([]string, 2*table)
	for i := range ids {
		ids[i] = fmt.Sprintf("client-%d", i)
	}
	churn := admission.NewLimiter(admission.LimiterConfig{RPS: 1e12, Burst: 1e12, MaxClients: table})
	l.put("admission.allow_ns_at_lru_bound", l.perCallNS("admission", "Limiter.Allow:lru-bound", calls,
		func(i int) { churn.Allow(ids[i%len(ids)], now) }))

	h := obs.NewRegistry().Histogram("probe_seconds", "ledger probe", nil)
	l.put("obs.observe_ns", l.perCallNS("obs", "Histogram.Observe", calls, func(i int) { h.Observe(float64(i%100) / 1000) }))

	replicas := make([]string, 16)
	for i := range replicas {
		replicas[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	ring := cluster.NewRing(replicas)
	key := cluster.QueryKey(graphName, "ic", sketchEpsilon)
	l.put("cluster.ring_owners_ns", l.perCallNS("cluster", "Ring.Owners", calls/10, func(int) { ring.Owners(key, 2) }))
}
