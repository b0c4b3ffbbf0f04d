package analysis

import (
	"go/ast"
	"go/types"
)

// determinismCritical names the packages whose outputs must be pure
// functions of (graph, params, seed): the RR samplers, the sketch index
// built on them, the diffusion engine and its Monte-Carlo estimator, the
// EaSyIM/OSIM scorers with their probe stream, and the splittable RNG
// itself. PR 3–6 rest on an index being reproducible regardless of worker
// count, wall-clock or map iteration order — Workers=8 must equal
// Workers=1 byte-for-byte, and incremental repair must replay untouched
// sets identically; the pinned stream and seed tables of internal/diffusion
// and internal/core hold the simulators to the same standard.
var determinismCritical = map[string]bool{
	"ris":       true,
	"sketch":    true,
	"rng":       true,
	"diffusion": true,
	"core":      true,
}

// globalRandFuncs are the math/rand (and v2) package-level functions
// drawing from the process-global source. rand.New/NewSource/NewPCG et
// al. stay legal: a locally seeded generator is deterministic.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// Nondeterminism forbids, in determinism-critical packages, the three
// ways hidden nondeterminism has historically crept into sampled output:
// wall-clock reads (time.Now), the process-global math/rand source, and
// ranging over a map where the iteration order can leak into results.
// A map range is accepted when it provably cannot leak order — every
// write that survives the loop is keyed by the loop variable — or when
// the collected result is sorted later in the same function.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc: "forbid time.Now, global math/rand and order-leaking map iteration " +
		"in determinism-critical packages (internal/ris, internal/sketch, internal/rng, " +
		"internal/diffusion, internal/core)",
	AppliesTo: func(path, _ string) bool { return determinismCritical[lastSegment(path)] },
	Run:       runNondeterminism,
}

func runNondeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := calleeObj(pass.Info, n)
				if isPkgFunc(obj, "time", "Now") {
					pass.Reportf(n.Pos(), "time.Now in a determinism-critical package: sampled output must be a pure function of (graph, params, seed)")
				}
				if (isPkgFunc(obj, "math/rand") || isPkgFunc(obj, "math/rand/v2")) && globalRandFuncs[obj.Name()] {
					pass.Reportf(n.Pos(), "global math/rand source in a determinism-critical package: derive a stream from rng.Split(seed, index) instead")
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
}

// checkMapRange flags `for k := range m` over a map unless the loop is
// order-oblivious (all surviving writes keyed by k) or the enclosing
// function sorts after the loop.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if keyedWritesOnly(pass, rng) {
		return
	}
	if fn := enclosingFunc(pass.Files, rng); fn != nil && sortsAfter(pass, fn, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order can leak into results: write keyed by the loop variable, or sort what the loop collects before it is used")
}

// keyedWritesOnly reports whether every assignment in the loop body that
// targets state declared outside the body is an index expression keyed
// (somewhere in its index) by the loop's key variable — e.g.
// `dst[k] = v`, `m2[k]++`, `delete(m, k)`. Such loops are
// order-oblivious: each iteration touches only its own key's slot.
func keyedWritesOnly(pass *Pass, rng *ast.RangeStmt) bool {
	keyIdent, _ := rng.Key.(*ast.Ident)
	if keyIdent == nil || keyIdent.Name == "_" {
		return false
	}
	keyObj := pass.Info.Defs[keyIdent]
	if keyObj == nil {
		return false
	}
	// Variables declared inside the loop body (and the key/value
	// themselves) are per-iteration scratch; writes to them are fine.
	localTo := func(id *ast.Ident) bool {
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
	}
	usesKey := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == keyObj {
				found = true
			}
			return !found
		})
		return found
	}
	// An lvalue is safe when its root variable is loop-local or when it
	// is indexed by the key.
	safeLValue := func(e ast.Expr) bool {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return id.Name == "_" || localTo(id)
		}
		if base := selectorBase(e); base != nil && localTo(base) {
			return true
		}
		for {
			switch v := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				if usesKey(v.Index) {
					return true
				}
				e = v.X
			case *ast.SelectorExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			default:
				return false
			}
		}
	}
	ok := true
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !safeLValue(lhs) {
					ok = false
				}
			}
		case *ast.IncDecStmt:
			if !safeLValue(n.X) {
				ok = false
			}
		case *ast.SendStmt:
			ok = false // channel sends publish in iteration order
		case *ast.ReturnStmt:
			ok = false // which iteration returns depends on order
		case *ast.CallExpr:
			// Builtins are effect-free or covered by the lvalue rules
			// (delete's map argument order cannot leak; append's result
			// must land in a safe lvalue, checked via AssignStmt).
			// Any other call may capture iteration order — reject.
			if obj := calleeObj(pass.Info, n); obj != nil {
				if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
					return true
				}
			}
			ok = false
		}
		return ok
	})
	return ok
}

// sortsAfter reports whether fn calls sort.* or slices.Sort* after the
// loop ends — the "collect then sort" idiom that makes an unordered
// collection deterministic before anything observes it.
func sortsAfter(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, okc := n.(*ast.CallExpr)
		if !okc || call.Pos() < rng.End() {
			return !found
		}
		obj := calleeObj(pass.Info, call)
		if isPkgFunc(obj, "sort") || (isPkgFunc(obj, "slices") && len(obj.Name()) >= 4 && obj.Name()[:4] == "Sort") {
			found = true
		}
		return !found
	})
	return found
}
