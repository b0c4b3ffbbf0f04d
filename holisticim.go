// Package holisticim is a from-scratch Go implementation of "Holistic
// Influence Maximization: Combining Scalability and Efficiency with
// Opinion-Aware Models" (Galhotra, Arora, Roy — SIGMOD 2016).
//
// It provides:
//
//   - the Opinion-cum-Interaction (OI) diffusion model over IC and LT
//     first layers, together with the classical IC/WC/LT models and the
//     prior opinion-aware baselines OC and IC-N;
//   - the paper's scalable seed-selection algorithms EaSyIM (opinion-
//     oblivious) and OSIM (opinion-aware MEO), running in O(k·l·(m+n))
//     time and O(n) space;
//   - the full baseline suite the paper evaluates against: GREEDY,
//     CELF++, Modified-GREEDY, TIM+, IMM, IRIE, SIMPATH, Degree,
//     DegreeDiscount and PageRank;
//   - a deterministic parallel Monte-Carlo spread estimator;
//   - synthetic dataset generators, plus the Twitter-study and
//     customer-churn pipelines from the paper's Section 4.
//
// # Quick start
//
//	g := holisticim.GenerateBA(10000, 3, 1)     // a social graph
//	g.SetUniformProb(0.1)                        // IC probabilities
//	holisticim.AssignOpinions(g, holisticim.OpinionNormal, 2)
//	holisticim.AssignInteractions(g, 3)
//	res, err := holisticim.SelectSeeds(g, 50, holisticim.AlgOSIM, holisticim.Options{})
//	est, err := holisticim.EstimateOpinionSpreadContext(context.Background(), g, res.Seeds, holisticim.Options{})
//	fmt.Println(res.Seeds, est.EffectiveOpinionSpread(1))
//
// The selection contract is context-first: SelectSeedsContext (and every
// im.Selector underneath it) honors cancellation and deadlines at
// per-seed checkpoints, returning the partial prefix selected so far
// with Result.Partial set and an error wrapping ctx.Err(). Attach
// Options.Progress to observe each seed as it is chosen, or
// Options.Deadline to bound the selection wall-clock without managing a
// context yourself.
//
// See the examples/ directory for complete programs.
package holisticim

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/holisticim/holisticim/internal/core"
	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/greedy"
	"github.com/holisticim/holisticim/internal/heuristics"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/ris"
	"github.com/holisticim/holisticim/internal/rng"
	"github.com/holisticim/holisticim/internal/sketch"
)

// Re-exported core types. The full lower-level APIs live in the internal
// packages; the aliases below are the stable public surface.
type (
	// Graph is a directed graph in CSR form with per-edge influence
	// probability p(u,v), interaction probability ϕ(u,v), LT weight and
	// per-node opinion o_v ∈ [-1,1].
	Graph = graph.Graph
	// NodeID identifies a node (dense ids 0..n-1).
	NodeID = graph.NodeID
	// Builder accumulates edges and produces an immutable Graph.
	Builder = graph.Builder
	// Result reports a seed selection: seeds in selection order, timing
	// and algorithm-specific metrics. Partial marks a selection cut short
	// by cancellation or deadline expiry.
	Result = im.Result
	// Progress observes per-seed selection progress (0-based seed index,
	// the seed and the cumulative elapsed time); attach one via
	// Options.Progress. Callbacks run synchronously on the selection
	// goroutine and must be fast.
	Progress = im.Progress
	// Estimate is a Monte-Carlo spread estimate.
	Estimate = diffusion.Estimate
	// Model is a diffusion process bound to a graph.
	Model = diffusion.Model
)

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int32) *Builder { return graph.NewBuilder(n) }

// ReadEdgeList parses "u v [p [phi]]" lines into a Graph.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList serializes a Graph readably by ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadBinaryGraph loads a graph from the compact binary format, which is
// roughly an order of magnitude faster than the text edge-list for large
// graphs.
func ReadBinaryGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// ReadGraphFile loads a graph file in either format, sniffing the binary
// magic: a file that starts with it is read with ReadBinaryGraph,
// anything else (including files shorter than the magic) with
// ReadEdgeList.
func ReadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("holisticim: open graph file: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var g *Graph
	if magic, _ := r.Peek(4); string(magic) == "HIMG" { // the binary format's magic
		g, err = graph.ReadBinary(r)
	} else {
		g, err = graph.ReadEdgeList(r)
	}
	if err != nil {
		return nil, fmt.Errorf("holisticim: read %s: %w", path, err)
	}
	return g, nil
}

// WriteBinaryGraph saves a graph (including edge parameters, LT weights
// and opinions) in the compact binary format.
func WriteBinaryGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// GenerateBA grows an undirected Barabási–Albert graph (both arcs per
// edge) with edgesPerNode attachments — a stand-in for co-authorship
// networks such as NetHEPT/HepPh.
func GenerateBA(n int32, edgesPerNode int, seed uint64) *Graph {
	g := graph.BarabasiAlbert(n, edgesPerNode, rng.New(seed))
	g.SetDefaultLTWeights()
	return g
}

// GenerateRMAT samples a skewed R-MAT graph with m arcs — a stand-in for
// large social networks. Set undirected to expand each edge to both arcs.
func GenerateRMAT(n int32, m int64, undirected bool, seed uint64) *Graph {
	g := graph.RMAT(n, m, graph.DefaultRMAT, undirected, rng.New(seed))
	g.SetDefaultLTWeights()
	return g
}

// OpinionDistribution selects how AssignOpinions samples o_v.
type OpinionDistribution = opinion.Distribution

// Opinion distributions (paper Sec. 4.1.3 annotations).
const (
	OpinionUniform   = opinion.Uniform   // o ~ rand(-1,1)
	OpinionNormal    = opinion.Normal    // o ~ N(0,1) clamped
	OpinionPolarized = opinion.Polarized // two-mode ±[0.3,1]
)

// ParseOpinionDistribution reads "uniform", "normal" or "polarized" —
// the inverse of OpinionDistribution.String.
func ParseOpinionDistribution(s string) (OpinionDistribution, error) {
	return opinion.ParseDistribution(s)
}

// AssignOpinions samples an opinion for every node.
func AssignOpinions(g *Graph, d OpinionDistribution, seed uint64) {
	opinion.AssignOpinions(g, d, seed)
}

// AssignInteractions samples ϕ(u,v) ~ rand(0,1) for every edge.
func AssignInteractions(g *Graph, seed uint64) {
	opinion.AssignInteractions(g, seed)
}

// ModelKind names a diffusion model for the high-level API.
type ModelKind string

// Supported diffusion models.
const (
	ModelIC   ModelKind = "ic"    // independent cascade (p on edges)
	ModelWC   ModelKind = "wc"    // weighted cascade (p=1/indeg; call SetWeightedCascadeProb)
	ModelLT   ModelKind = "lt"    // linear threshold (w on edges)
	ModelOIIC ModelKind = "oi-ic" // opinion-cum-interaction over IC
	ModelOILT ModelKind = "oi-lt" // opinion-cum-interaction over LT
	ModelOC   ModelKind = "oc"    // Zhang et al. opinion baseline (LT)
)

// modelKinds is the one place that says what a ModelKind means: the
// diffusion model that simulates it, the edge weight EaSyIM/OSIM score by,
// the reverse-reachable-set semantics the RIS family samples under, and
// whether opinion spread is meaningful under it. An unknown kind reads the
// zero entry — p weights, IC sampling, opinion-oblivious — and fails in
// NewModel.
var modelKinds = map[ModelKind]struct {
	build        func(*Graph) Model
	weight       core.EdgeWeight
	ris          ris.ModelKind
	opinionAware bool
}{
	ModelIC:   {diffusion.NewIC, core.WeightProb, ris.ModelIC, false},
	ModelWC:   {diffusion.NewIC, core.WeightProb, ris.ModelIC, false},
	ModelLT:   {diffusion.NewLT, core.WeightLT, ris.ModelLT, false},
	ModelOIIC: {func(g *Graph) Model { return diffusion.NewOI(g, diffusion.LayerIC) }, core.WeightProb, ris.ModelIC, true},
	ModelOILT: {func(g *Graph) Model { return diffusion.NewOI(g, diffusion.LayerLT) }, core.WeightLT, ris.ModelLT, true},
	ModelOC:   {diffusion.NewOC, core.WeightLT, ris.ModelOC, true},
}

// NewModel instantiates a diffusion model over g.
func NewModel(g *Graph, kind ModelKind) (Model, error) {
	build := modelKinds[kind].build
	if build == nil {
		return nil, fmt.Errorf("holisticim: unknown model %q", kind)
	}
	return build(g), nil
}

// OpinionAware reports whether the model tracks per-node opinions (the
// OI variants and the OC baseline), i.e. whether opinion-spread
// estimates under it are meaningful.
func (k ModelKind) OpinionAware() bool { return modelKinds[k].opinionAware }

// RRSemantics returns which reverse-reachable-set semantics the RIS
// family (TIM+/IMM and the RR-sketch index) samples under this model:
//
//   - "ic": reverse IC worlds (ic, wc, oi-ic and the default);
//   - "lt": reverse live-edge walks (lt, oi-lt);
//   - "oc": the same reverse live-edge walks, additionally recording
//     each set's root-opinion weight so the index can answer
//     opinion-aware estimates and weighted (opinion-coverage) selections.
//
// Serving layers use it to key sketch indexes — an "oc" sketch samples
// the very sets an "lt" one does, but only the weighted index can serve
// the opinion path, so the two are distinct keys.
func (k ModelKind) RRSemantics() string { return modelKinds[k].ris.Semantics() }

// Algorithm names a seed-selection algorithm.
type Algorithm string

// Supported algorithms.
const (
	AlgEaSyIM         Algorithm = "easyim"          // the paper's scalable opinion-oblivious algorithm
	AlgOSIM           Algorithm = "osim"            // the paper's opinion-aware algorithm (MEO)
	AlgGreedy         Algorithm = "greedy"          // Kempe et al. hill climbing
	AlgCELFPP         Algorithm = "celf++"          // Goyal et al. lazy forward
	AlgModifiedGreedy Algorithm = "modified-greedy" // paper Appendix A (MEO objective)
	AlgTIMPlus        Algorithm = "tim+"            // Tang et al. SIGMOD'14
	AlgIMM            Algorithm = "imm"             // Tang et al. SIGMOD'15
	AlgIRIE           Algorithm = "irie"            // Jung et al. ICDM'12
	AlgSIMPATH        Algorithm = "simpath"         // Goyal et al. ICDM'11 (LT)
	AlgStaticGreedy   Algorithm = "static-greedy"   // Cheng et al. CIKM'13 snapshot greedy
	AlgDegree         Algorithm = "degree"
	AlgDegreeDiscount Algorithm = "degree-discount"
	AlgPageRank       Algorithm = "pagerank"
)

// Options tunes SelectSeeds and the estimators. The zero value picks the
// paper's defaults everywhere.
type Options struct {
	// Model is the diffusion model the selection optimizes for (default
	// ModelIC for oblivious algorithms, ModelOIIC for opinion-aware ones).
	Model ModelKind
	// PathLength is EaSyIM/OSIM's l (default 3, the paper's choice).
	PathLength int
	// Lambda is the MEO penalty on negative opinion spread (default 1).
	Lambda float64
	// Epsilon is TIM+/IMM's approximation slack (default 0.1).
	Epsilon float64
	// MCRuns is the Monte-Carlo budget for simulation-driven algorithms
	// and estimators (default 10000, the paper's setting).
	MCRuns int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Workers bounds the goroutines of every parallel stage — EaSyIM/OSIM
	// sweeps, RR sampling, Monte-Carlo runs — and changes no result. One
	// rule sizes them all: ≤ 0 means GOMAXPROCS, never more than
	// max(16, 2·GOMAXPROCS) or the stage's chunks of work, and small work
	// (a sweep under ~131k arcs, a batch under 512 RR sets) stays on the
	// caller. A prebuilt sketch samples with its own SketchOptions.Workers.
	Workers int
	// TIMThetaCap optionally bounds TIM+/IMM RR sets (0 = unbounded).
	TIMThetaCap int
	// Progress, when set, observes every chosen seed as selection runs.
	// Like Workers it cannot change the selected seeds, so it is excluded
	// from Query.Fingerprint.
	Progress Progress
	// Deadline, when positive, bounds the selection wall-clock time:
	// SelectSeedsContext derives a timeout context and the selection
	// returns a Partial result with an error wrapping
	// context.DeadlineExceeded once it expires. Excluded from
	// Query.Fingerprint (a deadline changes when a result arrives, never
	// which result a completed run yields).
	Deadline time.Duration
	// Sketch, when set, answers AlgTIMPlus/AlgIMM selections from a
	// prebuilt RR-sketch index (see BuildSketch) instead of resampling —
	// typically 10-100x faster — and, for Model "oc", also answers
	// EstimateOpinionSpreadContext from the opinion-weighted sample
	// instead of Monte Carlo. Used only when the sketch was built over
	// the same graph content (pointer or fingerprint match) and RR
	// semantics, and for selections only when TIMThetaCap is unset; the
	// sketch's own ε/seed govern the sample. Excluded from
	// Query.Fingerprint: serving layers must key sketch-backed results
	// separately (the bundled service's fast path bypasses its result
	// cache).
	Sketch *Sketch
}

func (o Options) withDefaults(opinionAware bool) Options {
	if o.Model == "" {
		if opinionAware {
			o.Model = ModelOIIC
		} else {
			o.Model = ModelIC
		}
	}
	if o.PathLength <= 0 {
		o.PathLength = 3
	}
	if o.Lambda == 0 {
		o.Lambda = 1
	}
	o.Epsilon = CanonicalEpsilon(o.Epsilon)
	o.Seed = CanonicalSeed(o.Seed)
	if o.MCRuns <= 0 {
		o.MCRuns = 10000
	}
	return o
}

// CanonicalEpsilon resolves the RIS approximation slack ε exactly as
// Options, SketchOptions and the bundled service's sketch keys do:
// non-positive means the paper's default 0.1. Serving layers
// canonicalize request fields through this single helper so a `{}`
// request and one spelling out the defaults key the same sample.
func CanonicalEpsilon(eps float64) float64 { return ris.CanonicalEpsilon(eps) }

// CanonicalSeed resolves the master sampling seed the same way (zero
// means the default seed 1). See CanonicalEpsilon.
func CanonicalSeed(seed uint64) uint64 { return ris.CanonicalSeed(seed) }

// opinionAware reports whether alg optimizes the opinion-aware MEO
// objective (and therefore defaults to an OI model).
func opinionAware(alg Algorithm) bool {
	return alg == AlgOSIM || alg == AlgModifiedGreedy
}

// SelectSeeds picks k seed nodes with the chosen algorithm, running to
// completion with no cancellation — a thin context.Background() wrapper
// around SelectSeedsContext.
func SelectSeeds(g *Graph, k int, alg Algorithm, opts Options) (Result, error) {
	return SelectSeedsContext(context.Background(), g, k, alg, opts)
}

// SelectSeedsContext picks k seed nodes with the chosen algorithm under
// ctx. It returns an error (rather than panicking) for invalid
// configuration at this public boundary; when ctx is cancelled — or the
// deadline from ctx or opts.Deadline passes — mid-selection, it returns
// promptly with the partial Result (Partial set, Seeds holding the prefix
// chosen so far) and an error wrapping ctx.Err(). Attach opts.Progress to
// observe each seed as it is chosen.
//
// SelectSeedsContext is a thin wrapper over Run with a single-member
// select Query; batch workloads (many k values in one call) go through
// Run directly.
func SelectSeedsContext(ctx context.Context, g *Graph, k int, alg Algorithm, opts Options) (Result, error) {
	ans, err := Run(ctx, g, Query{Task: TaskSelect, Algorithm: alg, Ks: []int{k}, Options: opts})
	if len(ans.Members) > 0 && ans.Members[0].Result != nil {
		return *ans.Members[0].Result, err
	}
	return Result{}, err
}

// newSelector constructs the cold im.Selector implementing alg over g
// with resolved options o — the single algorithm table Run and every
// selection entrypoint share. It never consults opts.Sketch: whether a
// prebuilt index serves TIM+/IMM is the planner's decision alone, and
// runSelect has acted on it before asking for a selector.
func newSelector(g *Graph, o Options, alg Algorithm) (im.Selector, error) {
	model, err := NewModel(g, o.Model)
	if err != nil {
		return nil, err
	}
	// LT-family models (lt, oi-lt, oc) drive EaSyIM/OSIM scores and reverse
	// sampling by the LT edge weights.
	kind := modelKinds[o.Model]
	// Monte-Carlo objectives honor Workers: the estimates are deterministic
	// per run regardless of parallelism, so this only changes speed.
	spreadObjective := func() *greedy.MCObjective {
		obj := greedy.NewSpreadObjective(model, o.MCRuns, o.Seed)
		obj.Workers = o.Workers
		return obj
	}

	var sel im.Selector
	switch alg {
	case AlgEaSyIM:
		scorer := core.NewEaSyIM(g, o.PathLength, kind.weight)
		scorer.SetWorkers(o.Workers)
		sel = core.NewScoreGreedy(scorer, core.ScoreGreedyOptions{
			Policy: core.PolicyMCMajority, ProbeModel: model, Seed: o.Seed,
		})
	case AlgOSIM:
		scorer := core.NewOSIM(g, o.PathLength, kind.weight, o.Lambda)
		scorer.SetWorkers(o.Workers)
		sel = core.NewScoreGreedy(scorer, core.ScoreGreedyOptions{
			Policy: core.PolicyMCMajority, ProbeModel: model, Seed: o.Seed,
		})
	case AlgGreedy:
		sel = greedy.NewGreedy(spreadObjective())
	case AlgCELFPP:
		sel = greedy.NewCELFPP(spreadObjective())
	case AlgModifiedGreedy:
		obj := greedy.NewEffectiveOpinionObjective(model, o.Lambda, o.MCRuns, o.Seed)
		obj.Workers = o.Workers
		sel = greedy.NewModifiedGreedy(obj)
	case AlgStaticGreedy:
		snapshots := o.MCRuns / 50
		if snapshots < 1 {
			snapshots = 1
		}
		sel = greedy.NewStaticGreedy(g, snapshots, o.Seed)
	case AlgTIMPlus:
		sel = ris.NewTIMPlus(g, kind.ris, ris.TIMOptions{Epsilon: o.Epsilon, Seed: o.Seed, Workers: o.Workers, ThetaCap: o.TIMThetaCap})
	case AlgIMM:
		sel = ris.NewIMM(g, kind.ris, ris.TIMOptions{Epsilon: o.Epsilon, Seed: o.Seed, Workers: o.Workers, ThetaCap: o.TIMThetaCap})
	case AlgIRIE:
		sel = heuristics.NewIRIE(g, 0, 0, 0)
	case AlgSIMPATH:
		sel = heuristics.NewSIMPATH(g, 0, 0)
	case AlgDegree:
		sel = heuristics.NewDegree(g)
	case AlgDegreeDiscount:
		p := graph.MeanEdgeProb(g)
		if p == 0 {
			p = 0.1
		}
		sel = heuristics.NewDegreeDiscount(g, p)
	case AlgPageRank:
		sel = heuristics.NewPageRank(g, 0, 0)
	default:
		return nil, fmt.Errorf("holisticim: unknown algorithm %q", alg)
	}
	return sel, nil
}

// estimateQuery adapts the single-seed-set estimator entrypoints onto a
// one-member estimate Query.
func estimateQuery(ctx context.Context, g *Graph, seeds []NodeID, opts Options, obj Objective) (Estimate, error) {
	ans, err := Run(ctx, g, Query{
		Task: TaskEstimate, Objective: obj, SeedSets: [][]NodeID{seeds}, Options: opts,
	})
	if len(ans.Members) > 0 && ans.Members[0].Estimate != nil {
		return *ans.Members[0].Estimate, err
	}
	return Estimate{}, err
}

// EstimateSpreadContext estimates σ(S) (expected activations beyond the
// seeds) under opts.Model. It returns an error for an unknown model and
// honors ctx: when cancelled mid-estimation the truncated Estimate comes
// back alongside an error wrapping ctx.Err().
func EstimateSpreadContext(ctx context.Context, g *Graph, seeds []NodeID, opts Options) (Estimate, error) {
	return estimateQuery(ctx, g, seeds, opts, ObjectiveSpread)
}

// EstimateOpinionSpreadContext estimates the opinion-aware spreads
// (Defs. 6-7) under opts.Model (default OI over IC), with the same
// context and error contract as EstimateSpreadContext.
//
// When opts.Model is ModelOC and opts.Sketch is an opinion-aware ("oc")
// sketch over the same graph content, the estimate is answered from the
// weighted RR sample instead of Monte Carlo — typically orders of
// magnitude faster. A sketch-served Estimate reports the RR-set count as
// Runs and zero variances; SketchServedEstimate reports whether a given
// call would take the fast path.
func EstimateOpinionSpreadContext(ctx context.Context, g *Graph, seeds []NodeID, opts Options) (Estimate, error) {
	return estimateQuery(ctx, g, seeds, opts, ObjectiveOpinion)
}

// SketchServedEstimate reports whether EstimateOpinionSpreadContext with
// these options would be answered from opts.Sketch instead of running
// Monte Carlo: the resolved model must be ModelOC and the sketch must be
// an opinion-weighted index over the same graph content.
func SketchServedEstimate(g *Graph, opts Options) bool {
	if opts.Sketch == nil {
		return false
	}
	o := opts.withDefaults(true)
	return o.Model == ModelOC && opts.Sketch.Matches(g, ris.ModelOC)
}

// Sketch is a reusable RR-sketch index: RR sets sampled once per
// (graph, model, ε, seed) and shared across selections. Build one with
// BuildSketch, persist it with WriteSketch/ReadSketch, query it directly
// with Select or attach it to Options.Sketch to accelerate
// AlgTIMPlus/AlgIMM. All methods are safe for concurrent use.
type Sketch = sketch.Index

// SketchStats snapshots a sketch's counters (sets held, memoized order
// length, selects served, lazy extensions, memory footprint).
type SketchStats = sketch.Stats

// SketchOpinionEstimate is a sketch-backed opinion-spread estimate (the
// weighted-RIS counterpart of Estimate), returned by
// Sketch.EstimateOpinion on "oc" sketches.
type SketchOpinionEstimate = sketch.OpinionEstimate

// SketchHeader is the metadata prefix of a sketch snapshot, readable
// without the graph via ReadSketchHeader.
type SketchHeader = sketch.Header

// SketchOptions configures BuildSketch. Zero values pick the paper's
// defaults (ε=0.1, seed 1, build-k 50, GOMAXPROCS workers).
type SketchOptions struct {
	// Model picks the RR-set semantics: "lt"/"oi-lt" sample reverse
	// live-edge walks, "oc" samples the same walks while recording each
	// set's root-opinion weight (enabling sketch-backed opinion estimates
	// and opinion-coverage selection), everything else (the default)
	// reverse IC worlds.
	Model ModelKind
	// Epsilon is the IMM approximation slack ε (default 0.1).
	Epsilon float64
	// Seed drives all sampling (default 1).
	Seed uint64
	// BuildK is the seed budget the initial θ bound targets (default 50);
	// selections with k ≤ BuildK are typically answered without growing
	// the sample.
	BuildK int
	// Workers bounds parallel sampling goroutines by Options.Workers' rule
	// (≤ 0 means GOMAXPROCS). Cannot change the sampled sets: set i always
	// comes from the split stream (Seed, i).
	Workers int
	// MaxSets, when positive, caps the index size (memory bound).
	MaxSets int
}

// BuildSketch samples an RR-sketch index over g: IMM's OPT
// lower-bounding phase followed by a top-up to the θ(BuildK) bound, with
// parallel deterministic sampling. The resulting index answers
// Select(ctx, k) for any k in milliseconds, lazily extending its sample
// when a request's θ bound exceeds the sets held.
func BuildSketch(ctx context.Context, g *Graph, o SketchOptions) (*Sketch, error) {
	if g == nil {
		return nil, fmt.Errorf("holisticim: nil graph")
	}
	if o.Model != "" {
		if _, err := NewModel(g, o.Model); err != nil {
			return nil, err
		}
	}
	return sketch.Build(ctx, g, sketch.Params{
		Kind:    modelKinds[o.Model].ris,
		Epsilon: o.Epsilon,
		Seed:    o.Seed,
		BuildK:  o.BuildK,
		Workers: o.Workers,
		MaxSets: o.MaxSets,
	})
}

// WriteSketch persists a sketch in the versioned binary snapshot format
// (magic, checksum, graph fingerprint guard).
func WriteSketch(w io.Writer, s *Sketch) error { return s.Save(w) }

// ReadSketch loads a snapshot written by WriteSketch and binds it to g,
// which must be the very graph the sketch was built on — the stored
// content fingerprint is verified before any set is accepted.
func ReadSketch(r io.Reader, g *Graph) (*Sketch, error) { return sketch.Load(r, g) }

// ReadSketchHeader inspects a snapshot's metadata without loading (or
// needing) the graph.
func ReadSketchHeader(r io.Reader) (SketchHeader, error) { return sketch.ReadHeader(r) }

// sketchServesSelect reports whether a TIM+/IMM selection under resolved
// options o can be served from o.Sketch: same graph content (pointer or
// fingerprint match), same RR semantics, and no explicit θ cap (a cap
// changes TIM+/IMM sampling in ways the index does not model).
func sketchServesSelect(g *Graph, o Options) bool {
	return o.Sketch != nil && o.TIMThetaCap == 0 && o.Sketch.Matches(g, modelKinds[o.Model].ris)
}
