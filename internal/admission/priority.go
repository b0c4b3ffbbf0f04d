package admission

// Priority is a request's service class. Smaller is more urgent: the
// job manager drains all interactive work before standard, and all
// standard before batch, so a flood of cold Monte-Carlo jobs cannot
// FIFO ahead of the millisecond sketch path the paper's design exists
// to keep fast.
type Priority int

// The three service classes, in dispatch order.
const (
	// Interactive is the sketch/heuristic fast path: work measured in
	// milliseconds that a human is waiting on.
	Interactive Priority = iota
	// Standard is RIS-backed sampling work: seconds, not milliseconds,
	// but still latency-sensitive.
	Standard
	// Batch is cold Monte-Carlo and other unbounded work: throughput
	// matters, latency does not.
	Batch
	// NumPriorities sizes per-priority arrays.
	NumPriorities int = iota
)

// String returns the wire form of p ("interactive", "standard",
// "batch"); out-of-range values print as "standard" so a corrupted
// value can never panic a metric label.
func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return "standard"
	}
}

// ParsePriority maps a wire name onto its Priority. ok is false for
// anything unrecognized, including "".
func ParsePriority(s string) (Priority, bool) {
	switch s {
	case "interactive":
		return Interactive, true
	case "standard":
		return Standard, true
	case "batch":
		return Batch, true
	}
	return Standard, false
}

// ForBackend derives the service class of one plan step from the
// backend the planner routed it to: the sketch index and the
// simulation-free heuristics (IRIE, SIMPATH, DegreeDiscount) are
// interactive, RIS sampling and score estimation take seconds
// (standard), cold Monte Carlo minutes (batch). Unknown backends are
// standard — neither trusted with the fast lane nor punished to the back
// of it.
func ForBackend(backend string) Priority {
	switch backend {
	case "sketch", "heuristic":
		return Interactive
	case "mc":
		return Batch
	default:
		return Standard
	}
}

// Worst folds the service classes of a multi-step plan into the class
// of the whole job: one cold member makes the job batch, because the
// queue slot is held for as long as the slowest member runs.
func Worst(ps ...Priority) Priority {
	worst := Interactive
	for _, p := range ps {
		if p > worst {
			worst = p
		}
	}
	return worst
}

// Demote applies a client's PriorityHeader wish to the planner-derived
// class: the request may only move toward batch, never toward
// interactive. Unparseable wishes keep the derived class.
func Demote(derived Priority, wish string) Priority {
	if p, ok := ParsePriority(wish); ok && p > derived {
		return p
	}
	return derived
}
