// Package sketch turns RR-set sampling — the engine behind TIM+/IMM and
// the cost that dominates the paper's scalability experiments (Figures
// 6i/6j, Table 3) — into a long-lived, shareable index. A one-off
// selection regenerates its RR collection from scratch and throws it
// away; an Index is built once per (graph, model, ε, seed), answers
// Select(ctx, k) for any k in milliseconds from the collection's
// memoized greedy max-coverage order, lazily extends its sample when a
// request's IMM θ bound needs more sets than it holds, and persists to a
// versioned binary snapshot so restarts warm instantly.
// The sample is ris.Collection's flat arena — a handful of arrays, not a
// slice per set — so building, loading and repairing allocate per batch
// and the index knows its size without walking anything. The greedy order
// and IMM's sampling phase are the collection's too (ris.Collection.Greedy,
// SampleIMM): the index adds locking, the θ fixpoint around lazy
// extension, repair and persistence.
//
// Three properties make the index sound to share:
//
//   - Determinism: set i is produced from the split stream (seed, i)
//     however many goroutines sample (build, extension and repair share
//     ris's one par.For sampling loop), so an index is a pure function of
//     (graph, Params) — parallel build, sequential build and
//     snapshot-restore all yield identical state.
//   - Monotonicity: extensions only append sets; the collection drops its
//     greedy order and recomputes it against the grown sample, exactly as
//     IMM's martingale analysis permits reusing sets across phases.
//   - Guarded persistence: snapshots carry the graph's content
//     fingerprint and refuse to load against a different graph.
package sketch

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// Workers bounds the sampling goroutines of build, extension and repair
	// as par.Workers resolves it (≤ 0: GOMAXPROCS). Cannot change the sets.
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
	return p
}

// Index is a reusable RR-sketch over one graph. All methods are safe for
// concurrent use. The greedy seed order belongs to the collection, which
// memoizes it and drops it whenever its sets change, so repeated and
// prefix queries are O(k) lookups — a slice of the order plus metrics
// kept per prefix — and nothing here invalidates anything; lb is the one
// field derived from the sets, re-derived by Repair when a set changes.
type Index struct {
	g *graph.Graph // guarded by mu: Repair swaps it, Matches rebinds it

	mu     sync.Mutex
	params Params          // guarded by mu
	col    *ris.Collection // guarded by mu
	lb     float64         // guarded by mu; lower bound on OPT_{BuildK} from the build phase

	// Live-graph repair state: the graph version the sample is synchronized
	// to (0 for an index over a never-mutated graph).
	graphVersion uint64 // guarded by mu

	selects    atomic.Int64
	extensions atomic.Int64
}

// Stats snapshots an index's counters for monitoring.
type Stats struct {
	Sets        int   // RR sets held
	OrderLen    int   // memoized greedy prefix length
	Selects     int64 // Select calls served
	Extensions  int64 // lazy extensions performed
	MemoryBytes int64 // exact bytes of the RR arena, its index and the greedy order
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
		params: p,
		col:    ris.NewCollection(g, p.Kind),
	}

	lb, _, err := x.col.SampleIMM(ctx, p.BuildK, p.Epsilon, p.Ell, p.Seed, p.Workers, p.MaxSets)
	if err != nil {
		phase := "OPT lower-bounding"
		if lb > 0 {
			phase = "top-up sampling"
		}
		return nil, fmt.Errorf("sketch: build interrupted during %s: %w", phase, err)
	}
	x.lb = lb
	return x, nil
}

// Graph returns the graph the index is bound to. Repair swaps the
// binding when a new snapshot is installed, hence the lock.
func (x *Index) Graph() *graph.Graph {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.g
}

// GraphFingerprint returns the content fingerprint of the bound graph —
// the graph's own memoized hash, so after a Repair the first caller that
// needs it (a Matches against another instance, a Save, a listing) hashes
// the new snapshot once for everyone.
func (x *Index) GraphFingerprint() uint64 {
	return x.Graph().Fingerprint()
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
// bound graph's, so a graph re-registered under the same
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
	if g.NumNodes() != x.g.NumNodes() || g.NumEdges() != x.g.NumEdges() || g.Fingerprint() != x.g.Fingerprint() {
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
		OrderLen:    x.col.GreedyLen(),
		Selects:     x.selects.Load(),
		Extensions:  x.extensions.Load(),
		MemoryBytes: x.col.MemoryFootprint(),
	}
}

// MemoryFootprint returns the bytes held by the index's arrays, all of
// them the collection's: the RR arena, its inverted index and the greedy
// order with its counters. O(1) — it runs on every Select.
func (x *Index) MemoryFootprint() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.col.MemoryFootprint()
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
	var (
		theta, extended, covered int
		capped                   bool
		seeds                    []graph.NodeID
	)
	for round := 0; ; round++ {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		seeds, covered = x.col.Greedy(k)
		// Coverage of the greedy k-prefix lower-bounds OPT_k on this
		// sample. The build-phase bound transfers too: OPT is monotone in
		// k (so it applies directly for k ≥ BuildK) and submodular (so
		// OPT_k ≥ (k/BuildK)·OPT_BuildK below it). Take the tightest.
		lb := ris.IMMLowerBound(n, float64(covered)/float64(x.col.Len()), x.params.Epsilon)
		if scaled := x.lb * math.Min(1, float64(k)/float64(x.params.BuildK)); scaled > lb {
			lb = scaled
		}
		theta = ris.IMMTheta(n, k, x.params.Epsilon, x.params.Ell, lb)
		if x.params.MaxSets > 0 && theta > x.params.MaxSets {
			theta, capped = x.params.MaxSets, true
		}
		if x.col.Len() >= theta {
			break
		}
		if round >= maxExtendRounds {
			res.AddMetric("theta_unmet", 1)
			break
		}
		grow := theta - x.col.Len()
		extended += grow
		// An interrupted extension keeps the chunks it completed; the
		// collection has dropped its greedy order either way.
		if err := x.col.GenerateParallelCtx(ctx, grow, x.params.Seed, x.params.Workers); err != nil {
			res.Partial = true
			tr.Finish(&res)
			return res, fmt.Errorf("im: %s interrupted during lazy extension: %w", AlgorithmName, err)
		}
		x.extensions.Add(1)
	}

	res.AddMetric("theta", float64(theta))
	if capped {
		res.AddMetric("theta_capped", 1)
	}
	if extended > 0 {
		res.AddMetric("extended_sets", float64(extended))
	}
	res.AddMetric("rrset_bytes", float64(x.col.MemoryFootprint()))
	x.addPrefixMetricsLocked(&res, k, covered)
	for _, s := range seeds {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		tr.Seed(&res, s)
	}
	tr.Finish(&res)
	x.selects.Add(1)
	return res, nil
}

// addPrefixMetricsLocked reports what the greedy k-prefix, covering the
// given number of sets, achieves on the current sample. For a weighted
// index weighted_coverage is what the greedy maximized (summed scalar
// walk weights of covered sets) and estimated_opinion_spread the
// depth-exact Def. 6 estimator for the chosen seeds — the number
// EstimateOpinion would report.
func (x *Index) addPrefixMetricsLocked(res *im.Result, k, covered int) {
	frac := float64(covered) / float64(x.col.Len())
	res.AddMetric("sets", float64(x.col.Len()))
	res.AddMetric("coverage", frac)
	res.AddMetric("estimated_spread", frac*float64(x.g.NumNodes()))
	if x.params.Kind.Weighted() {
		weight, estimate := x.col.GreedyOpinion(k)
		res.AddMetric("weighted_coverage", weight)
		res.AddMetric("estimated_opinion_spread", estimate)
	}
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
// Results align with ks, which may repeat and come in any order. A member
// at the largest budget is exactly what Select(ctx, kmax) returns, so a
// batch of one k is that Select.
//
// When the kmax selection is interrupted, every smaller member is served
// from the prefix chosen so far with Partial set (the sample was never
// θ-validated for it) alongside the error.
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
	out := make([]im.Result, len(ks))
	//lint:ignore imlint/ctxpoll O(batch members), bounded by the request's ks list, not the graph
	for i, k := range ks {
		switch {
		case k == kmax:
			out[i] = full
		case err != nil:
			// Salvage what the interrupted kmax run selected: complete
			// prefixes are not certified (θ unmet), so every member is partial.
			out[i] = im.Result{
				Algorithm: AlgorithmName,
				Seeds:     append([]graph.NodeID(nil), full.Seeds[:min(k, len(full.Seeds))]...),
				Took:      full.Took,
				Partial:   true,
			}
		default:
			out[i] = x.prefixResultLocked(k)
			x.selects.Add(1)
		}
	}
	return out, err
}

// prefixResultLocked materializes the memoized k-prefix of the greedy
// order as a Result, without touching the sample. Callers must have run
// selectLocked for some budget ≥ k first.
func (x *Index) prefixResultLocked(k int) im.Result {
	res := im.Result{Algorithm: AlgorithmName}
	seeds, covered := x.col.Greedy(k)
	// Copy: the order's backing array is reused once an extension drops
	// the memoized order, and results outlive the lock.
	res.Seeds = append(res.Seeds, seeds...)
	res.AddMetric("batch_prefix", 1)
	x.addPrefixMetricsLocked(&res, k, covered)
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
