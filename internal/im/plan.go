package im

import "fmt"

// Backend names an execution strategy the query planner can choose for a
// member of a batch query. The planner (holisticim.PlanQuery) picks one
// per member and records why, so serving layers can route — synchronous
// for sketch-served plans, asynchronous jobs otherwise — without
// re-deriving the decision, and clients can see how their query will run.
type Backend string

// Execution backends.
const (
	// BackendSketch answers from a prebuilt RR-sketch index (milliseconds;
	// no sampling on the request path).
	BackendSketch Backend = "sketch"
	// BackendRIS samples a reverse-reachable-set collection (TIM+/IMM).
	// Batch members sharing one Shared key are served from a single
	// collection sized for the largest k.
	BackendRIS Backend = "ris"
	// BackendMC runs Monte-Carlo simulations (greedy selection families
	// and spread estimates).
	BackendMC Backend = "mc"
	// BackendScore runs the paper's score-vector algorithms (EaSyIM/OSIM).
	BackendScore Backend = "score"
	// BackendHeuristic runs a simulation-free heuristic (IRIE, SIMPATH,
	// DegreeDiscount).
	BackendHeuristic Backend = "heuristic"
)

// PlanStep is the planned execution of one query member.
type PlanStep struct {
	// Member indexes the query member (k value or seed set) this step
	// serves, in request order.
	Member int `json:"member"`
	// Task is "select" or "estimate".
	Task string `json:"task"`
	// Algorithm is the selection algorithm (select tasks) or the
	// estimator objective (estimate tasks).
	Algorithm string `json:"algorithm,omitempty"`
	// Backend is the execution strategy chosen for this member.
	Backend Backend `json:"backend"`
	// Shared, when set, keys the state this member shares with every
	// other step carrying the same value — one memoized sketch order, one
	// selector run at max(Ks), or one diffusion model serving them all.
	Shared string `json:"shared,omitempty"`
	// Reason says why the planner chose this backend.
	Reason string `json:"reason"`
}

// Plan is the planner's routing decision for a whole query: one step per
// member. Serving layers include it in responses so a client can always
// ask "why was my query executed this way".
type Plan struct {
	Steps []PlanStep `json:"steps"`
}

// SketchOnly reports whether every member is served from a prebuilt
// sketch index — the condition under which a serving layer may run the
// query synchronously on the request path.
func (p Plan) SketchOnly() bool {
	if len(p.Steps) == 0 {
		return false
	}
	for _, s := range p.Steps {
		if s.Backend != BackendSketch {
			return false
		}
	}
	return true
}

// Explain renders the plan as one human-readable line per step.
func (p Plan) Explain() []string {
	out := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		line := fmt.Sprintf("member %d: %s", s.Member, s.Task)
		if s.Algorithm != "" {
			line += fmt.Sprintf(" %s", s.Algorithm)
		}
		line += fmt.Sprintf(" via %s", s.Backend)
		if s.Shared != "" {
			line += fmt.Sprintf(" [shared %s]", s.Shared)
		}
		line += fmt.Sprintf(": %s", s.Reason)
		out[i] = line
	}
	return out
}
