// Package sketch turns RR-set sampling — the engine behind TIM+/IMM and
// the cost that dominates the paper's scalability experiments (Figures
// 6i/6j, Table 3) — into a long-lived, shareable index. A one-off
// selection regenerates its RR collection from scratch and throws it
// away; an Index is built once per (graph, model, ε, seed), answers
// Select(ctx, k) for any k in milliseconds by incremental greedy
// max-coverage over memoized coverage counters, lazily extends its
// sample when a request's IMM θ bound needs more sets than it holds, and
// persists to a versioned binary snapshot so restarts warm instantly.
// The sample is ris.Collection's flat arena — a handful of arrays, not a
// slice per set — so building, loading and repairing allocate per batch
// and the index knows its size without walking anything.
//
// Three properties make the index sound to share:
//
//   - Determinism: set i is produced from the split stream (seed, i)
//     regardless of how many goroutines sample (Build runs the workers of
//     ris.GenerateParallelCtx), so an index is a pure function of
//     (graph, Params) — parallel build, sequential build and
//     snapshot-restore all yield identical state.
//   - Monotonicity: extensions only append sets; the greedy order is
//     recomputed against the grown sample, exactly as IMM's martingale
//     analysis permits reusing sets across phases.
//   - Guarded persistence: snapshots carry the graph's content
//     fingerprint and refuse to load against a different graph.
package sketch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/ris"
)

// AlgorithmName is reported as im.Result.Algorithm by sketch-backed
// selections, distinguishing them from cold TIM+/IMM runs in logs and
// metrics.
const AlgorithmName = "RR-sketch"

// maxExtendRounds bounds the extend→recompute fixpoint loop in Select.
// θ shrinks as the coverage-based OPT bound tightens, so the loop settles
// in one or two rounds in practice; the bound is a backstop, recorded as
// metric "theta_unmet" when hit.
const maxExtendRounds = 16

// Params keys an Index. Zero values pick the paper's defaults.
type Params struct {
	// Kind is the RR-set semantics to sample (reverse IC or reverse LT).
	Kind ris.ModelKind
	// Epsilon is the IMM approximation slack ε (default 0.1).
	Epsilon float64
	// Ell is the failure-probability exponent ℓ (default 1).
	Ell float64
	// Seed drives all sampling (default 1). Set i of the index is always
	// the i-th set of the (Seed)-keyed stream.
	Seed uint64
	// BuildK is the seed budget the initial θ bound is computed for
	// (default 50, clamped to n). Requests with k ≤ BuildK are typically
	// answered without extension.
	BuildK int
	// Workers bounds parallel sampling goroutines during build and lazy
	// extension (default GOMAXPROCS). Cannot change the sampled sets.
	Workers int
	// MaxSets, when positive, caps the index size: builds and extensions
	// stop there and selections record metric "theta_capped". The
	// serving layer uses it to bound per-sketch memory.
	MaxSets int
}

func (p Params) withDefaults(n int32) Params {
	p.Epsilon = ris.CanonicalEpsilon(p.Epsilon)
	p.Seed = ris.CanonicalSeed(p.Seed)
	if p.Ell <= 0 {
		p.Ell = 1
	}
	if p.BuildK <= 0 {
		p.BuildK = 50
	}
	if int64(p.BuildK) > int64(n) {
		p.BuildK = int(n)
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// Index is a reusable RR-sketch over one graph. All methods are safe for
// concurrent use; Select memoizes the greedy seed order so repeated and
// prefix queries are O(k) lookups: a slice of the order plus metrics
// kept per prefix, with the reported footprint summed from array
// capacities rather than recounted set by set.
type Index struct {
	g  *graph.Graph // guarded by mu: Repair swaps it, Matches rebinds it
	fp uint64       // guarded by mu; graph content fingerprint, 0 = not hashed yet: read it through fpLocked

	mu     sync.Mutex
	params Params          // guarded by mu
	col    *ris.Collection // guarded by mu
	lb     float64         // guarded by mu; lower bound on OPT_{BuildK} from the build phase

	// Live-graph repair state: the mutation-log version the sample is
	// synchronized to (0 for an index over a never-mutated graph), and the
	// ids of sets a hop-bounded repair deliberately left describing older
	// content (see Repair and RepairOptions.MaxHops).
	graphVersion uint64             // guarded by mu
	stale        map[int32]struct{} // guarded by mu

	// Memoized incremental greedy max-coverage state over col. order is
	// the greedy seed permutation computed so far; orderCov[i] is the
	// number of sets covered by order[:i+1]. Extensions reset all of it.
	// For weighted (OC) indexes the argmax runs over wgain — the summed
	// root-opinion weight of the uncovered sets containing each node —
	// so the greedy order maximizes opinion coverage instead of plain
	// set coverage; orderWCov[i] is the weight covered by order[:i+1].
	// counts/orderCov are maintained either way: the unweighted coverage
	// of the chosen prefix still lower-bounds OPT for the θ machinery.
	// A node already in the order holds a sentinel no candidate can tie
	// (−1 in counts, or −Inf in wgain for weighted indexes), so the argmax
	// is a plain scan of one array.
	counts    []int32        // guarded by mu
	wgain     []float64      // guarded by mu
	covered   ris.Bitset     // guarded by mu
	totalCov  int            // guarded by mu
	totalWCov float64        // guarded by mu
	order     []graph.NodeID // guarded by mu
	orderCov  []int          // guarded by mu
	orderWCov []float64      // guarded by mu
	// opinionEst memoizes the depth-exact Def. 6 estimate per k for the
	// current order, so repeat weighted selects stay O(k) instead of
	// re-walking every covered set. Cleared with the rest of the state.
	opinionEst map[int]float64 // guarded by mu

	selects    atomic.Int64
	extensions atomic.Int64
}

// Stats snapshots an index's counters for monitoring.
type Stats struct {
	Sets        int   // RR sets held
	OrderLen    int   // memoized greedy prefix length
	Selects     int64 // Select calls served
	Extensions  int64 // lazy extensions performed
	MemoryBytes int64 // exact bytes of the RR arena, its index and the greedy counters
}

// Build samples an index over g: IMM's OPT lower-bounding phase at
// BuildK, then a top-up to θ(BuildK), all with Workers parallel samplers.
// Honors ctx at batch granularity; an interrupted build returns the error
// and no index.
func Build(ctx context.Context, g *graph.Graph, p Params) (*Index, error) {
	if g == nil {
		return nil, errors.New("sketch: nil graph")
	}
	if g.NumNodes() == 0 {
		return nil, errors.New("sketch: empty graph")
	}
	p = p.withDefaults(g.NumNodes())
	x := &Index{
		g:      g,
		fp:     g.Fingerprint(),
		params: p,
		col:    ris.NewCollection(g, p.Kind),
	}

	// IMM sampling phase (geometric OPT guesses) at BuildK.
	n := float64(g.NumNodes())
	epsPrime := ris.IMMEpsPrime(p.Epsilon)
	lambdaPrime := ris.IMMLambdaPrime(n, p.BuildK, p.Epsilon, p.Ell)
	lb := 1.0
	maxI := int(math.Ceil(math.Log2(n))) - 1
	if maxI < 1 {
		maxI = 1
	}
	for i := 1; i <= maxI; i++ {
		guess := n / math.Exp2(float64(i))
		thetaI := x.capSetsLocked(int(math.Ceil(lambdaPrime / guess)))
		if x.col.Len() < thetaI {
			if err := x.col.GenerateParallelCtx(ctx, thetaI-x.col.Len(), p.Seed, p.Workers); err != nil {
				return nil, fmt.Errorf("sketch: build interrupted during OPT lower-bounding: %w", err)
			}
		}
		_, frac := x.col.MaxCoverage(p.BuildK)
		if n*frac >= (1+epsPrime)*guess {
			lb = n * frac / (1 + epsPrime)
			break
		}
	}
	x.lb = lb

	theta := x.capSetsLocked(ris.IMMTheta(n, p.BuildK, p.Epsilon, p.Ell, lb))
	if x.col.Len() < theta {
		if err := x.col.GenerateParallelCtx(ctx, theta-x.col.Len(), p.Seed, p.Workers); err != nil {
			return nil, fmt.Errorf("sketch: build interrupted during top-up sampling: %w", err)
		}
	}
	x.resetGreedyLocked()
	return x, nil
}

// capSetsLocked clamps a requested set count to MaxSets when configured.
// Callers hold x.mu — or, in Build, own the not-yet-published index.
func (x *Index) capSetsLocked(sets int) int {
	if x.params.MaxSets > 0 && sets > x.params.MaxSets {
		return x.params.MaxSets
	}
	return sets
}

// Graph returns the graph the index is bound to. Repair swaps the
// binding when a new snapshot is installed, hence the lock.
func (x *Index) Graph() *graph.Graph {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.g
}

// GraphFingerprint returns the content fingerprint of the bound graph,
// pinned at build (or load) time and advanced by Repair.
func (x *Index) GraphFingerprint() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.fpLocked()
}

// fpLocked returns the content fingerprint of the bound graph. Build and
// Load pin it; Repair only clears it — hashing every arc of the new
// snapshot costs more than repairing a small batch, and serving
// re-matches the repaired index by pointer — and whoever next needs it
// (a Matches against another instance, a Save, a listing) hashes once.
func (x *Index) fpLocked() uint64 {
	if x.fp == 0 {
		x.fp = x.g.Fingerprint()
	}
	return x.fp
}

// Kind returns the RR-set semantics the index samples.
func (x *Index) Kind() ris.ModelKind {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.params.Kind
}

// Params returns the normalized build parameters.
func (x *Index) Params() Params {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.params
}

// SetWorkers retunes extension parallelism (e.g. after loading a snapshot
// built on different hardware). Non-positive picks GOMAXPROCS.
func (x *Index) SetWorkers(w int) {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	x.mu.Lock()
	x.params.Workers = w
	x.mu.Unlock()
}

// Len returns the number of RR sets held.
func (x *Index) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.col.Len()
}

// Matches reports whether the index can serve selections for (g, kind):
// same RR-set semantics and the same graph CONTENT. The common case —
// the very instance the index was built on — is a pointer check; a
// different instance is accepted iff its content fingerprint equals the
// one pinned at build/load time, so a graph re-registered under the same
// name (a reload with identical bytes) keeps serving the fast path
// instead of silently falling back to cold runs. On a fingerprint match
// the index rebinds to the new instance, making subsequent calls
// pointer-fast again; every sampled set remains valid because the
// fingerprint covers topology and all model parameters.
func (x *Index) Matches(g *graph.Graph, kind ris.ModelKind) bool {
	if g == nil {
		return false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.params.Kind != kind {
		return false
	}
	if x.g == g {
		return true
	}
	if g.NumNodes() != x.g.NumNodes() || g.NumEdges() != x.g.NumEdges() || g.Fingerprint() != x.fpLocked() {
		return false
	}
	// Rebind the collection too, or the replaced instance would stay
	// pinned in memory (and keep being sampled) for the index's lifetime.
	x.g = g
	x.col.Rebind(g)
	return true
}

// Stats snapshots the index counters.
func (x *Index) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return Stats{
		Sets:        x.col.Len(),
		OrderLen:    len(x.order),
		Selects:     x.selects.Load(),
		Extensions:  x.extensions.Load(),
		MemoryBytes: x.memoryLocked(),
	}
}

// MemoryFootprint returns the bytes held by the index's arrays: the RR
// arena and its inverted index plus the greedy counters.
func (x *Index) MemoryFootprint() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.memoryLocked()
}

// memoryLocked is O(1) — it runs on every Select.
func (x *Index) memoryLocked() int64 {
	b := x.col.MemoryFootprint()
	b += int64(cap(x.counts))*4 + int64(cap(x.covered))*8
	b += int64(cap(x.order))*4 + int64(cap(x.orderCov))*8
	b += int64(cap(x.wgain))*8 + int64(cap(x.orderWCov))*8
	return b
}

// resetGreedyLocked rebuilds the coverage counters from the inverted
// index and clears the memoized order. Called after every extension.
func (x *Index) resetGreedyLocked() {
	n := x.g.NumNodes()
	weighted := x.params.Kind.Weighted()
	if x.counts == nil {
		x.counts = make([]int32, n)
	}
	if weighted && x.wgain == nil {
		x.wgain = make([]float64, n)
	}
	weights := x.col.Weights()
	for v := graph.NodeID(0); v < n; v++ {
		sids := x.col.SetsContaining(v)
		x.counts[v] = int32(len(sids))
		if weighted {
			w := 0.0
			for _, sid := range sids {
				w += weights[sid]
			}
			x.wgain[v] = w
		}
	}
	x.covered = x.covered.Reset(x.col.Len())
	x.totalCov = 0
	x.totalWCov = 0
	x.order = x.order[:0]
	x.orderCov = x.orderCov[:0]
	x.orderWCov = x.orderWCov[:0]
	x.opinionEst = nil
}

// extendOrderLocked grows the memoized greedy order to k seeds. Each step
// is an O(n) argmax over the marginal counters followed by counter
// updates over the newly covered sets — the standard greedy max-coverage
// step, but resumable at any prefix. Unweighted indexes maximize covered
// sets; weighted (OC) indexes maximize the summed root-opinion weight of
// covered sets (weighted max coverage — marginal gains may go negative
// once only negative-opinion sets remain, and the argmax then picks the
// least-damaging node so a full-k selection is still returned).
func (x *Index) extendOrderLocked(k int) {
	weighted := x.params.Kind.Weighted()
	weights := x.col.Weights()
	for len(x.order) < k {
		best := graph.NodeID(-1)
		if weighted {
			bestGain := math.Inf(-1)
			for v, gain := range x.wgain {
				if gain > bestGain {
					bestGain = gain
					best = graph.NodeID(v)
				}
			}
		} else {
			bestCount := int32(-1)
			for v, count := range x.counts {
				if count > bestCount {
					bestCount = count
					best = graph.NodeID(v)
				}
			}
		}
		if best < 0 {
			return // k > n, excluded by CheckK; defensive
		}
		x.order = append(x.order, best)
		for _, sid := range x.col.SetsContaining(best) {
			if x.covered.Has(sid) {
				continue
			}
			x.covered.Set(sid)
			x.totalCov++
			if weighted {
				w := weights[sid]
				x.totalWCov += w
				for _, u := range x.col.Set(int(sid)) {
					x.counts[u]--
					x.wgain[u] -= w
				}
			} else {
				for _, u := range x.col.Set(int(sid)) {
					x.counts[u]--
				}
			}
		}
		// Every set containing best is covered now, so nothing updates its
		// counters again: retire it from the argmax.
		if weighted {
			x.wgain[best] = math.Inf(-1)
		} else {
			x.counts[best] = -1
		}
		x.orderCov = append(x.orderCov, x.totalCov)
		x.orderWCov = append(x.orderWCov, x.totalWCov)
	}
}

// Select answers a k-seed selection from the index. Repeated or prefix
// queries hit the memoized greedy order; a larger k extends the order
// incrementally; and when IMM's θ(k) bound exceeds the sets held, the
// sample is lazily extended (deterministically — the new sets are the
// next indices of the same stream) before the order is recomputed.
func (x *Index) Select(ctx context.Context, k int) (im.Result, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.selectLocked(ctx, k)
}

// selectLocked is Select's body, factored out so SelectPrefixes can run a
// whole batch under one critical section (the memoized order must not be
// reset by a concurrent extension between members of a batch).
func (x *Index) selectLocked(ctx context.Context, k int) (im.Result, error) {
	res := im.Result{Algorithm: AlgorithmName}
	if err := im.CheckK(k, x.g.NumNodes()); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)

	n := float64(x.g.NumNodes())
	epsPrime := ris.IMMEpsPrime(x.params.Epsilon)
	extended := 0
	capped := false
	var theta int
	for round := 0; ; round++ {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		x.extendOrderLocked(k)
		// Coverage of the greedy k-prefix lower-bounds OPT_k on this
		// sample. The build-phase bound transfers too: OPT is monotone in
		// k (so it applies directly for k ≥ BuildK) and submodular (so
		// OPT_k ≥ (k/BuildK)·OPT_BuildK below it). Take the tightest.
		frac := float64(x.orderCov[k-1]) / float64(x.col.Len())
		lb := n * frac / (1 + epsPrime)
		if scaled := x.lb * math.Min(1, float64(k)/float64(x.params.BuildK)); scaled > lb {
			lb = scaled
		}
		want := ris.IMMTheta(n, k, x.params.Epsilon, x.params.Ell, lb)
		theta = x.capSetsLocked(want)
		capped = capped || theta < want
		if x.col.Len() >= theta {
			break
		}
		if round >= maxExtendRounds {
			res.AddMetric("theta_unmet", 1)
			break
		}
		grow := theta - x.col.Len()
		extended += grow
		if err := x.col.GenerateParallelCtx(ctx, grow, x.params.Seed, x.params.Workers); err != nil {
			res.Partial = true
			tr.Finish(&res)
			// The appended prefix is already consistent; only the memoized
			// greedy state must be rebuilt before the next Select.
			x.resetGreedyLocked()
			return res, fmt.Errorf("im: %s interrupted during lazy extension: %w", AlgorithmName, err)
		}
		x.extensions.Add(1)
		x.resetGreedyLocked()
	}

	frac := float64(x.orderCov[k-1]) / float64(x.col.Len())
	res.AddMetric("sets", float64(x.col.Len()))
	res.AddMetric("theta", float64(theta))
	if capped {
		res.AddMetric("theta_capped", 1)
	}
	if extended > 0 {
		res.AddMetric("extended_sets", float64(extended))
	}
	res.AddMetric("coverage", frac)
	res.AddMetric("estimated_spread", frac*n)
	res.AddMetric("rrset_bytes", float64(x.memoryLocked()))
	if x.params.Kind.Weighted() {
		// weighted_coverage is the objective the greedy maximized (summed
		// scalar walk weights of covered sets); estimated_opinion_spread is
		// the depth-exact Def. 6 estimator for the chosen seeds — the same
		// number EstimateOpinion would report, memoized per k so repeat
		// selects keep their O(k) cost.
		res.AddMetric("weighted_coverage", x.orderWCov[k-1])
		res.AddMetric("estimated_opinion_spread", x.opinionEstLocked(k))
	}
	for _, s := range x.order[:k] {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		tr.Seed(&res, s)
	}
	tr.Finish(&res)
	x.selects.Add(1)
	return res, nil
}

// opinionEstLocked returns the depth-exact Def. 6 opinion-spread
// estimate for the memoized k-prefix, memoized per k.
func (x *Index) opinionEstLocked(k int) float64 {
	est, ok := x.opinionEst[k]
	if !ok {
		_, pos, neg := x.col.OpinionCoverage(x.order[:k])
		est = (pos - neg) * float64(x.g.NumNodes()) / float64(x.col.Len())
		if x.opinionEst == nil {
			x.opinionEst = make(map[int]float64)
		}
		x.opinionEst[k] = est
	}
	return est
}

// SelectPrefixes answers a batch of seed budgets from one shared sample
// and one memoized greedy order, guaranteeing the batch-prefix invariant:
// the seeds returned for a smaller budget are exactly the first k seeds
// of every larger member's selection. The full θ machinery — lazy
// extension included — runs once for the largest budget; every other
// member is then served as a prefix of that settled order without growing
// the sample, so a batch costs one kmax selection plus O(k) slicing per
// member. The whole batch runs under one critical section: a concurrent
// Select cannot extend the sample (and reset the order) between members.
// Results align with ks, which may repeat and come in any order.
//
// When the kmax selection is interrupted, every member that can be
// served from the prefix chosen so far is returned with Partial set (the
// sample was never θ-validated for it) alongside the error.
func (x *Index) SelectPrefixes(ctx context.Context, ks []int) ([]im.Result, error) {
	if len(ks) == 0 {
		return nil, errors.New("sketch: empty batch")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	kmax := 0
	//lint:ignore imlint/ctxpoll O(batch members), bounded by the request's ks list, not the graph
	for _, k := range ks {
		// Validation reads x.g, which Repair swaps — it must sit inside
		// the critical section with everything else.
		if err := im.CheckK(k, x.g.NumNodes()); err != nil {
			return nil, err
		}
		if k > kmax {
			kmax = k
		}
	}
	full, err := x.selectLocked(ctx, kmax)
	if err != nil {
		// Salvage what the interrupted kmax run selected: complete
		// prefixes are not certified (θ unmet), so every member is partial.
		out := make([]im.Result, len(ks))
		//lint:ignore imlint/ctxpoll O(batch members), bounded by the request's ks list, not the graph
		for i, k := range ks {
			end := k
			if end > len(full.Seeds) {
				end = len(full.Seeds)
			}
			out[i] = im.Result{
				Algorithm: AlgorithmName,
				Seeds:     append([]graph.NodeID(nil), full.Seeds[:end]...),
				Took:      full.Took,
				Partial:   true,
			}
		}
		return out, err
	}
	out := make([]im.Result, len(ks))
	//lint:ignore imlint/ctxpoll O(batch members), bounded by the request's ks list, not the graph
	for i, k := range ks {
		if k == kmax {
			out[i] = full
			continue
		}
		out[i] = x.prefixResultLocked(k)
		x.selects.Add(1)
	}
	return out, nil
}

// prefixResultLocked materializes the memoized k-prefix of the greedy
// order as a Result, without touching the sample. Callers must have run
// selectLocked for some budget ≥ k first.
func (x *Index) prefixResultLocked(k int) im.Result {
	res := im.Result{Algorithm: AlgorithmName}
	// Copy: the order's backing array is reused when an extension resets
	// the memoized state, and results outlive the lock.
	res.Seeds = append(res.Seeds, x.order[:k]...)
	n := float64(x.g.NumNodes())
	frac := float64(x.orderCov[k-1]) / float64(x.col.Len())
	res.AddMetric("sets", float64(x.col.Len()))
	res.AddMetric("coverage", frac)
	res.AddMetric("estimated_spread", frac*n)
	res.AddMetric("batch_prefix", 1)
	if x.params.Kind.Weighted() {
		res.AddMetric("weighted_coverage", x.orderWCov[k-1])
		res.AddMetric("estimated_opinion_spread", x.opinionEstLocked(k))
	}
	return res
}

// Name implements im.Selector.
func (x *Index) Name() string { return AlgorithmName }

var _ im.Selector = (*Index)(nil)

// EstimateSpread returns the RIS estimator n·F(S) of σ(S) over the
// index's current sample.
func (x *Index) EstimateSpread(seeds []graph.NodeID) float64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.col.EstimateSpread(seeds)
}

// OpinionEstimate is a sketch-backed estimate of the OC opinion spreads
// (Defs. 6–7) for a fixed seed set, the weighted-RIS counterpart of a
// Monte-Carlo diffusion.Estimate. All spread fields are in node-opinion
// units scaled to the whole graph (n/θ times covered weight).
type OpinionEstimate struct {
	Sets     int     // RR sets the estimate was computed over (θ)
	Coverage float64 // fraction of sets hit by the seeds
	Spread   float64 // σ(S): estimated activations beyond the seeds
	Opinion  float64 // σ_o(S) = Positive − Negative (Def. 6)
	Positive float64 // Σ of positive final opinions (non-seed nodes)
	Negative float64 // Σ |negative final opinions| (non-seed nodes)
}

// EffectiveOpinion returns σ_λ^o(S) = Positive − λ·Negative (Def. 7).
func (e OpinionEstimate) EffectiveOpinion(lambda float64) float64 {
	return e.Positive - lambda*e.Negative
}

// EstimateOpinion answers the opinion-aware estimate from the weighted
// sample: covered sets whose root is not itself a seed contribute their
// root-opinion weight (split into positive and negative mass), scaled by
// n/θ. Only weighted (OC) indexes can answer; others return an error so
// callers fall back to Monte Carlo.
func (x *Index) EstimateOpinion(seeds []graph.NodeID) (OpinionEstimate, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.params.Kind.Weighted() {
		return OpinionEstimate{}, fmt.Errorf("sketch: %s index carries no opinion weights", x.params.Kind)
	}
	theta := x.col.Len()
	if theta == 0 {
		return OpinionEstimate{}, errors.New("sketch: empty index")
	}
	covered, pos, neg := x.col.OpinionCoverage(seeds)
	n := float64(x.g.NumNodes())
	scale := n / float64(theta)
	frac := float64(covered) / float64(theta)
	// n·F counts every activation including the seeds themselves (a root
	// in S is always covered); subtract the distinct seeds to report the
	// same "beyond the seeds" spread Monte Carlo does.
	distinct := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		distinct[s] = true
	}
	spread := n*frac - float64(len(distinct))
	if spread < 0 {
		spread = 0
	}
	return OpinionEstimate{
		Sets:     theta,
		Coverage: frac,
		Spread:   spread,
		Opinion:  (pos - neg) * scale,
		Positive: pos * scale,
		Negative: neg * scale,
	}, nil
}
