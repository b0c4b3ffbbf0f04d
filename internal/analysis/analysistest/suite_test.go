package analysistest

import (
	"testing"

	"github.com/holisticim/holisticim/internal/analysis"
)

// One fixture package per analyzer. Each contains at least one flagged
// case, one true negative and one suppressed case; the flagged cases
// are the ISSUE's acceptance scenarios (a Select loop with its ctx
// check deleted, a guarded read moved outside its lock, ...).

func TestNondeterminism(t *testing.T) {
	Run(t, analysis.Nondeterminism, "ris")
	Run(t, analysis.Nondeterminism, "diffusion")
}
func TestGuardedBy(t *testing.T)   { Run(t, analysis.GuardedBy, "guarded") }
func TestAtomicField(t *testing.T) { Run(t, analysis.AtomicField, "atomicf") }
func TestCtxPoll(t *testing.T)     { Run(t, analysis.CtxPoll, "ctxpoll") }
func TestErrEnvelope(t *testing.T) { Run(t, analysis.ErrEnvelope, "service") }
func TestErrEnvelopeAdmission(t *testing.T) {
	Run(t, analysis.ErrEnvelope, "admission")
}
func TestSlogLint(t *testing.T) { Run(t, analysis.SlogLint, "slogpkg") }
