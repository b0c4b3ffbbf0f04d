package holisticim

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/ris"
)

// Task names what a Query asks for.
type Task string

// Query tasks.
const (
	// TaskSelect picks seed sets: one member per requested k.
	TaskSelect Task = "select"
	// TaskEstimate evaluates spreads: one member per requested seed set.
	TaskEstimate Task = "estimate"
)

// Objective names what an estimate Query measures.
type Objective string

// Estimate objectives.
const (
	// ObjectiveSpread estimates σ(S), the expected activations beyond the
	// seeds.
	ObjectiveSpread Objective = "spread"
	// ObjectiveOpinion estimates the opinion-aware spreads (Defs. 6-7).
	ObjectiveOpinion Objective = "opinion"
)

// Planner types, re-exported from the internal contract package so
// serving layers and clients share one vocabulary.
type (
	// Plan is the planner's routing decision for a Query: one PlanStep
	// per member, with an Explain() trace of why each backend was chosen.
	Plan = im.Plan
	// PlanStep is the planned execution of one query member.
	PlanStep = im.PlanStep
	// Backend names an execution strategy (sketch, ris, mc, score,
	// heuristic).
	Backend = im.Backend
)

// Execution backends a Plan can choose.
const (
	BackendSketch    = im.BackendSketch
	BackendRIS       = im.BackendRIS
	BackendMC        = im.BackendMC
	BackendScore     = im.BackendScore
	BackendHeuristic = im.BackendHeuristic
)

// Query is the one typed request the whole system serves: a task, an
// algorithm (select) or objective (estimate), one or many k values or
// seed sets, and Options. Batch members execute against shared state —
// a matching sketch's greedy order or one selector run at max(Ks) serves
// every k, one diffusion model every estimated seed set — so a batch
// costs little more than its largest member. The max(Ks) member equals
// the single query for that k; smaller members are prefixes of it, which
// equal the smaller single queries for every cold backend but TIM+/IMM,
// whose θ depends on k.
//
// The zero values infer sensibly: an empty Task means select unless
// SeedSets is set; an empty Objective follows Options.Model (opinion for
// the opinion-aware models, spread otherwise).
type Query struct {
	// Task is "select" or "estimate" (inferred when empty).
	Task Task
	// Algorithm picks the selection algorithm (select tasks).
	Algorithm Algorithm
	// Objective picks what an estimate measures (estimate tasks).
	Objective Objective
	// K is the single seed budget; Ks, when set, asks for a batch (one
	// member per value, served from shared state) and takes precedence.
	K  int
	Ks []int
	// SeedSets are the seed sets to estimate, one member each.
	SeedSets [][]NodeID
	// Options tunes models, budgets and backends exactly as in the
	// per-task entrypoints. Lifecycle knobs (Progress, Deadline, Sketch,
	// Workers) keep their usual exclusion from fingerprints.
	Options Options
	// OnMember, when set, observes each member as its result completes —
	// the batch-level counterpart of Options.Progress. Excluded from
	// Fingerprint. Callbacks run synchronously on the executing goroutine.
	OnMember func(member int, m Member)
}

// Member is one completed unit of an Answer: a selection for one k, or
// an estimate for one seed set.
type Member struct {
	// K is the member's seed budget (select tasks).
	K int
	// Seeds is the evaluated input seed set (estimate tasks).
	Seeds []NodeID
	// Result is the selection outcome (select tasks).
	Result *Result
	// Estimate is the spread estimate (estimate tasks).
	Estimate *Estimate
}

// Answer is Run's response: the executed Plan and one Member per query
// member, in request order. On cancellation or failure the members
// completed (or partially completed) before the stop are retained
// alongside the returned error.
type Answer struct {
	Plan    Plan
	Members []Member
	Took    time.Duration
}

// Normalized resolves the query's inferred fields and option defaults
// without needing the graph: task inference, single-K promotion into Ks,
// objective inference and the Options defaults. It is the single owner
// of that inference — the planner, Fingerprint, the bundled service and
// the cluster router all read the task, objective, model, ε and seed a
// query will run under from its result instead of re-deriving them. It
// refuses an ε outside (0,1] and a negative or NaN λ, not budgets or seed
// ids (those need the graph; planQuery does), and is idempotent. On error
// the query comes back as far as it was resolved.
func (q Query) Normalized() (Query, error) {
	switch q.Task {
	case "":
		if len(q.SeedSets) > 0 {
			q.Task = TaskEstimate
		} else {
			q.Task = TaskSelect
		}
	case TaskSelect, TaskEstimate:
	default:
		return q, fmt.Errorf("holisticim: unknown task %q", q.Task)
	}
	if err := ris.CheckEpsilon(q.Options.Epsilon); err != nil {
		return q, fmt.Errorf("holisticim: %w", err)
	}
	if !(q.Options.Lambda >= 0) { // NaN too
		return q, fmt.Errorf("holisticim: lambda %v must be ≥ 0", q.Options.Lambda)
	}
	switch q.Task {
	case TaskSelect:
		if len(q.Ks) == 0 {
			q.Ks = []int{q.K}
		} else {
			q.Ks = append([]int(nil), q.Ks...)
		}
		q.K = 0 // Ks is the canonical form: equivalent spellings normalize equal
		if _, ok := backendClass(q.Algorithm); !ok {
			return q, fmt.Errorf("holisticim: unknown algorithm %q", q.Algorithm)
		}
		q.Options = q.Options.withDefaults(opinionAware(q.Algorithm))
	case TaskEstimate:
		if len(q.SeedSets) == 0 {
			return q, fmt.Errorf("holisticim: estimate query needs at least one seed set")
		}
		if q.Objective == "" {
			if q.Options.Model.OpinionAware() {
				q.Objective = ObjectiveOpinion
			} else {
				q.Objective = ObjectiveSpread
			}
		}
		switch q.Objective {
		case ObjectiveSpread, ObjectiveOpinion:
		default:
			return q, fmt.Errorf("holisticim: unknown objective %q", q.Objective)
		}
		q.Options = q.Options.withDefaults(q.Objective == ObjectiveOpinion)
	}
	return q, nil
}

// backendClass maps a selection algorithm to the backend family that
// executes it cold (without a sketch).
func backendClass(alg Algorithm) (Backend, bool) {
	switch alg {
	case AlgTIMPlus, AlgIMM:
		return BackendRIS, true
	case AlgGreedy, AlgCELFPP, AlgModifiedGreedy:
		return BackendMC, true
	case AlgEaSyIM, AlgOSIM:
		return BackendScore, true
	case AlgIRIE, AlgSIMPATH, AlgDegreeDiscount:
		return BackendHeuristic, true
	}
	return "", false
}

// Fingerprint returns the canonical identity of the results this query
// would produce: defaults are resolved first, and fields that cannot
// change a completed result — Workers, Progress, OnMember, Deadline and
// the attached Sketch (a sketch-backed run may pick different, equally
// valid seeds than a cold run, so serving layers must never cache
// sketch-served answers under the cold key) — are excluded. K and a
// one-element Ks are the same query and fingerprint identically.
// Serving layers use this as the cache/deduplication key; it is stable
// across processes but not across releases.
func (q Query) Fingerprint() string {
	n, err := q.Normalized()
	if err != nil {
		return "invalid;" + err.Error()
	}
	c := n.Options
	switch n.Task {
	case TaskEstimate:
		return fmt.Sprintf("task=estimate;obj=%s;sets=%s;model=%s;lambda=%g;mc=%d;seed=%d",
			n.Objective, hashSeedSets(n.SeedSets), c.Model, c.Lambda, c.MCRuns, c.Seed)
	default:
		return fmt.Sprintf("alg=%s;ks=%s;model=%s;l=%d;lambda=%g;eps=%g;mc=%d;seed=%d;thetacap=%d",
			n.Algorithm, joinInts(n.Ks), c.Model, c.PathLength, c.Lambda, c.Epsilon, c.MCRuns, c.Seed, c.TIMThetaCap)
	}
}

func joinInts(ks []int) string {
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = strconv.Itoa(k)
	}
	return strings.Join(parts, ",")
}

// hashSeedSets digests the seed sets so estimate fingerprints stay
// bounded regardless of set size.
func hashSeedSets(sets [][]NodeID) string {
	parts := make([]string, len(sets))
	for i, set := range sets {
		h := fnv.New64a()
		var buf [4]byte
		for _, v := range set {
			buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(buf[:])
		}
		parts[i] = fmt.Sprintf("%d:%016x", len(set), h.Sum64())
	}
	return strings.Join(parts, ",")
}

// PlanQuery validates q against g and returns the execution Plan Run
// would follow — which backend serves each member and why — without
// executing anything. Serving layers use it to route (sketch-only plans
// can run synchronously on a request path) and to show clients how their
// query will execute.
func PlanQuery(g *Graph, q Query) (Plan, error) {
	_, plan, err := planQuery(g, q)
	return plan, err
}

// planQuery normalizes, validates and plans q. The returned Query has
// every default resolved.
func planQuery(g *Graph, q Query) (Query, Plan, error) {
	if g == nil {
		return q, Plan{}, fmt.Errorf("holisticim: nil graph")
	}
	n, err := q.Normalized()
	if err != nil {
		return n, Plan{}, err
	}
	o := n.Options
	if _, err := NewModel(g, o.Model); err != nil {
		return n, Plan{}, err
	}
	var plan Plan
	switch n.Task {
	case TaskSelect:
		for _, k := range n.Ks {
			if k <= 0 || int64(k) > int64(g.NumNodes()) {
				return n, Plan{}, fmt.Errorf("holisticim: invalid k=%d for n=%d", k, g.NumNodes())
			}
		}
		plan = planSelect(g, n)
	case TaskEstimate:
		for _, set := range n.SeedSets {
			if len(set) == 0 {
				return n, Plan{}, fmt.Errorf("holisticim: empty seed set")
			}
			for _, v := range set {
				if v < 0 || v >= g.NumNodes() {
					return n, Plan{}, fmt.Errorf("holisticim: seed %d out of range [0,%d)", v, g.NumNodes())
				}
			}
		}
		plan = planEstimate(g, n)
	}
	return n, plan, nil
}

// planSelect chooses the backend serving a (validated) select query.
// All members of a select batch share one backend: the sketch order or
// one selector run at max(Ks) serves every smaller budget as a prefix.
func planSelect(g *Graph, q Query) Plan {
	o := q.Options
	alg := string(q.Algorithm)
	cold, _ := backendClass(q.Algorithm)
	backend := cold
	var shared, reason string
	switch {
	case cold == BackendRIS && sketchServesSelect(g, o):
		backend = BackendSketch
		shared = "sketch"
		reason = fmt.Sprintf("prebuilt RR-sketch index matches (graph, %q semantics, ε=%g, seed=%d); served from the memoized greedy order",
			o.Model.RRSemantics(), o.Epsilon, o.Seed)
	case cold == BackendRIS:
		reason = fmt.Sprintf("cold %s run: RR sets sampled on demand", alg)
		if o.Sketch != nil && o.TIMThetaCap != 0 {
			reason += fmt.Sprintf(" (θ cap %d opts out of the attached sketch)", o.TIMThetaCap)
		} else if o.Sketch != nil {
			reason += " (attached sketch does not match the graph content — likely awaiting repair after a mutation — so the cold path serves)"
		}
	case cold == BackendMC:
		reason = fmt.Sprintf("simulation-driven selection (%d Monte-Carlo runs per evaluation)", o.MCRuns)
	case cold == BackendScore:
		reason = fmt.Sprintf("score-vector selection (path length l=%d)", o.PathLength)
	default:
		reason = "simulation-free heuristic"
	}
	if len(q.Ks) > 1 && backend != BackendSketch {
		kmax := maxInts(q.Ks)
		shared = fmt.Sprintf("selector(kmax=%d)", kmax)
		reason += fmt.Sprintf("; one run at kmax=%d serves every smaller budget as a greedy prefix", kmax)
	}
	steps := make([]PlanStep, len(q.Ks))
	for i := range q.Ks {
		steps[i] = PlanStep{
			Member: i, Task: string(TaskSelect), Algorithm: alg,
			Backend: backend, Shared: shared, Reason: reason,
		}
	}
	return Plan{Steps: steps}
}

// planEstimate chooses the backend serving a (validated) estimate query.
func planEstimate(g *Graph, q Query) Plan {
	o := q.Options
	sketchServed := q.Objective == ObjectiveOpinion && sketchServesEstimate(g, o)
	backend := BackendMC
	shared := ""
	var reason string
	switch {
	case sketchServed:
		backend = BackendSketch
		shared = "sketch"
		reason = "opinion-weighted RR sketch answers Def. 6-7 estimates without Monte Carlo"
	default:
		reason = fmt.Sprintf("Monte-Carlo estimate (%d runs, model %s)", o.MCRuns, o.Model)
		if len(q.SeedSets) > 1 {
			shared = fmt.Sprintf("model(%s)", o.Model)
			reason += fmt.Sprintf("; %d seed sets share one diffusion model setup", len(q.SeedSets))
		}
	}
	steps := make([]PlanStep, len(q.SeedSets))
	for i := range q.SeedSets {
		steps[i] = PlanStep{
			Member: i, Task: string(TaskEstimate), Algorithm: string(q.Objective),
			Backend: backend, Shared: shared, Reason: reason,
		}
	}
	return Plan{Steps: steps}
}

func maxInts(ks []int) int {
	m := 0
	for _, k := range ks {
		if k > m {
			m = k
		}
	}
	return m
}

// Run plans and executes q against g: every batch member runs against
// shared state (one sketch order or selector run serves each k ≤
// max(Ks); estimates share one diffusion model), per-seed progress
// streams through Options.Progress and per-member completion through
// q.OnMember, and the returned Answer carries the executed Plan. On
// cancellation or deadline expiry the members completed so far — the
// interrupted one partially — come back alongside an error wrapping
// ctx.Err(). Every per-task entrypoint (SelectSeedsContext, the
// estimators) is a thin wrapper over Run.
func Run(ctx context.Context, g *Graph, q Query) (Answer, error) {
	nq, plan, err := planQuery(g, q)
	if err != nil {
		return Answer{Plan: plan}, err
	}
	ans := Answer{Plan: plan, Members: make([]Member, 0, len(plan.Steps))}
	o := nq.Options
	if o.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Deadline)
		defer cancel()
	}
	if o.Progress != nil {
		ctx = im.WithProgress(ctx, o.Progress)
	}
	start := time.Now()
	switch nq.Task {
	case TaskSelect:
		err = runSelect(ctx, g, nq, &ans)
	default:
		err = runEstimate(ctx, g, nq, &ans)
	}
	ans.Took = time.Since(start)
	return ans, err
}

// emitSelect appends (and announces) the member for q.Ks[i].
func emitSelect(q Query, ans *Answer, i int, res Result) {
	m := Member{K: q.Ks[i], Result: &res}
	ans.Members = append(ans.Members, m)
	if q.OnMember != nil {
		q.OnMember(i, m)
	}
}

// runSelect executes a planned select query. A matched sketch answers
// every member from one settled sample and its memoized greedy order;
// otherwise the algorithm's own selector runs once, at max(Ks), and each
// member is the k-prefix of that run. Either way the max(Ks) member is
// exactly the single query for that k.
func runSelect(ctx context.Context, g *Graph, q Query, ans *Answer) error {
	if ans.Plan.Steps[0].Backend == BackendSketch {
		results, err := q.Options.Sketch.SelectPrefixes(ctx, q.Ks)
		for i, r := range results {
			emitSelect(q, ans, i, r)
		}
		return err
	}
	sel, err := newSelector(g, q.Options, q.Algorithm)
	if err != nil {
		return err
	}
	full, err := sel.Select(ctx, maxInts(q.Ks))
	for i, k := range q.Ks {
		emitSelect(q, ans, i, prefixOf(full, k))
	}
	return err
}

// prefixOf slices the k-prefix of a full selection run. A prefix within
// the selected seeds is a complete result in its own right (every
// selector is greedy in k); a budget at or beyond what the — possibly
// interrupted — run selected is the run itself. Each smaller member
// gets its own copy of the run's Metrics, tagged "batch_prefix": the
// counters describe the shared kmax run (an algorithm's spread estimate
// or objective value cannot be recomputed per prefix without paying for
// the selection again), and the tag says so on the wire — mirroring the
// sketch backend's marker.
func prefixOf(full Result, k int) Result {
	if k >= len(full.Seeds) {
		return full
	}
	r := Result{
		Algorithm: full.Algorithm,
		Seeds:     full.Seeds[:k:k],
		PerSeed:   full.PerSeed[:min(k, len(full.PerSeed)):k],
	}
	if len(full.Metrics) > 0 {
		r.Metrics = make(map[string]float64, len(full.Metrics)+1)
		for name, v := range full.Metrics {
			r.Metrics[name] = v
		}
	}
	r.AddMetric("batch_prefix", 1)
	if len(r.PerSeed) == k {
		r.Took = r.PerSeed[k-1]
	} else {
		r.Took = full.Took
	}
	return r
}

// runEstimate executes a planned estimate query: one member per seed
// set, all Monte-Carlo members sharing a single diffusion model.
func runEstimate(ctx context.Context, g *Graph, q Query, ans *Answer) error {
	o := q.Options
	model, err := NewModel(g, o.Model) // validated by the planner
	if err != nil {
		return err
	}
	for i, seeds := range q.SeedSets {
		var est Estimate
		var memberErr error
		served := false
		if ans.Plan.Steps[i].Backend == BackendSketch {
			if oe, err := o.Sketch.EstimateOpinion(seeds); err == nil {
				est = Estimate{
					Runs:           oe.Sets,
					Spread:         oe.Spread,
					OpinionSpread:  oe.Opinion,
					PositiveSpread: oe.Positive,
					NegativeSpread: oe.Negative,
				}
				served = true
			}
			// An index that cannot answer (defensively: unweighted kind)
			// falls through to Monte Carlo.
		}
		if !served {
			est = diffusion.MonteCarlo(model, seeds, diffusion.MCOptions{
				Runs: o.MCRuns, Seed: o.Seed, Workers: o.Workers, Ctx: ctx,
			})
			// A cancellation landing after the final run was dispatched did
			// not truncate anything — that estimate is complete.
			if cerr := ctx.Err(); cerr != nil && est.Runs < o.MCRuns {
				memberErr = fmt.Errorf("holisticim: estimate interrupted after %d of %d runs: %w",
					est.Runs, o.MCRuns, cerr)
			}
		}
		m := Member{Seeds: seeds, Estimate: &est}
		ans.Members = append(ans.Members, m)
		if q.OnMember != nil {
			q.OnMember(i, m)
		}
		if memberErr != nil {
			return memberErr
		}
	}
	return nil
}
