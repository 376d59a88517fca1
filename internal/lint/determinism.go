package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces DESIGN.md's promise that a simulation run is a
// pure function of its configuration: identical runs produce
// byte-identical figures. It flags, in simulation packages (internal/
// and cmd/):
//
//   - `range` over a map whose body does order-sensitive work —
//     appending to a slice, writing output, or accumulating floats or
//     unit quantities (float addition is not associative, so the sum
//     depends on Go's randomized map order);
//   - time.Now — wall-clock time must never leak into simulated time;
//   - the global math/rand source (rand.Intn, rand.Float64, ...),
//     which is unseeded; a seeded rand.New(rand.NewSource(s)) is fine.
//
// Order-insensitive map loops (integer counting, writes into another
// map, pure reads) pass: the point is reproducible artifacts, not a
// map ban. Goroutine-capture hazards (v1's append check) now live in
// the sharedcapture analyzer.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag order-dependent map iteration, wall-clock time, and " +
		"unseeded randomness in simulation packages",
	Severity: SeverityError,
	Run:      runDeterminism,
}

func runDeterminism(p *Pass) {
	if !strings.Contains(p.Path, "internal/") && !strings.Contains(p.Path, "cmd/") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(p, n)
			case *ast.SelectorExpr:
				checkClockAndRand(p, n)
			}
			return true
		})
	}
}

func checkMapRange(p *Pass, r *ast.RangeStmt) {
	t := p.TypeOf(r.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if reason := orderSensitive(p, r.Body); reason != "" {
		p.Reportf(r.Pos(),
			"map iteration order is random and the loop body %s; iterate a sorted key slice instead",
			reason)
	}
}

// orderSensitive scans a map-range body for operations whose result
// depends on iteration order, returning a description or "".
func orderSensitive(p *Pass, body *ast.BlockStmt) string {
	var reason string
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinAppend(p, n) {
				reason = "appends to a slice (element order follows map order)"
			} else if name, ok := outputCall(p, n); ok {
				reason = fmt.Sprintf("writes output via %s (line order follows map order)", name)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 {
				return true
			}
			switch n.Tok.String() {
			case "+=", "-=", "*=", "/=":
				lt := p.TypeOf(n.Lhs[0])
				if lt == nil {
					return true
				}
				if _, isUnit := unitType(lt); isUnit || isFloat(lt) {
					reason = "accumulates floating-point values (addition order changes the result)"
				} else if isString(lt) {
					reason = "concatenates strings (order follows map order)"
				}
			}
		}
		return reason == ""
	})
	return reason
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// outputCall reports calls that emit bytes somewhere a human or a
// file will see them: fmt printers and Write* methods.
func outputCall(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if obj, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
		if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "fmt" &&
			(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			return "fmt." + name, true
		}
	}
	if strings.HasPrefix(name, "Write") {
		if _, isMethod := p.Info.Selections[sel]; isMethod {
			return name, true
		}
	}
	return "", false
}

// checkClockAndRand flags time.Now and the global math/rand source.
func checkClockAndRand(p *Pass, sel *ast.SelectorExpr) {
	obj, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" {
			p.Reportf(sel.Pos(),
				"time.Now reads the wall clock; simulated time must come from the event engine")
		}
	case "math/rand", "math/rand/v2":
		if strings.HasPrefix(obj.Name(), "New") {
			return // constructing an explicitly seeded source
		}
		p.Reportf(sel.Pos(),
			"rand.%s uses the global source; use rand.New(rand.NewSource(seed)) so runs are reproducible",
			obj.Name())
	}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
