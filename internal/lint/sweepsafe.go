package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
	"strings"
)

// Sweepsafe generalizes the PR 2 parallel-sweep contract to every
// concurrent body in the simulator: a worker owns exactly the state
// the caller handed it. Inside a `go func` literal or a kernel passed
// to any method of a worker pool (Run, RunCaptured, ...), writes to
// variables captured from the spawning scope are flagged unless
// ownership is explicit:
//
//   - index-based ownership — the write targets an element whose index
//     is derived from a worker-local variable (errs[i] = ... where i
//     is computed inside the body), so each worker touches a disjoint
//     slot;
//   - per-worker ownership — the state arrives as a parameter of the
//     literal, so the caller partitioned it before spawning.
//
// Appending to a captured slice is the canonical violation (v1's
// determinism rule, which moved here): element order follows the
// scheduler and concurrent appends race on the slice header. The
// suggested fix rewrites `xs = append(xs, e)` to a write through the
// worker's index parameter.
var Sweepsafe = &Analyzer{
	Name: "sweepsafe",
	Doc: "flag writes to captured shared state in goroutine and " +
		"worker-pool bodies that lack index-based or per-worker ownership",
	Severity: SeverityError,
	Run:      runSweepsafe,
}

func runSweepsafe(p *Pass) {
	if !isSimPath(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if fn, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkWorkerBody(p, fn, "goroutine")
				}
			case *ast.CallExpr:
				if isPoolMethod(p, n) {
					for _, arg := range n.Args {
						if fn, ok := arg.(*ast.FuncLit); ok {
							checkWorkerBody(p, fn, "worker-pool kernel")
						}
					}
				}
			}
			return true
		})
	}
}

// isPoolMethod reports whether call invokes a method of a worker pool
// — a named type whose name ends in "Pool" (internal/sweep.Pool and
// fixtures that mirror it). Every function literal such a call takes
// is treated as a kernel, whatever the method's name.
func isPoolMethod(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	return strings.HasSuffix(typeKey(s.Recv()), "Pool")
}

// checkWorkerBody flags shared-state writes inside one worker body.
func checkWorkerBody(p *Pass, fn *ast.FuncLit, kind string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWorkerWrite(p, fn, kind, n, lhs)
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(p, fn, kind, nil, n.X)
		}
		return true
	})
}

// checkWorkerWrite classifies one write target inside a worker body.
// assign is the enclosing assignment (nil for ++/--), used to detect
// the append pattern and build its fix.
func checkWorkerWrite(p *Pass, fn *ast.FuncLit, kind string, assign *ast.AssignStmt, lhs ast.Expr) {
	switch target := lhs.(type) {
	case *ast.Ident:
		v := capturedVar(p, fn, target)
		if v == nil {
			return
		}
		if call := appendToSame(p, assign, target); call != nil {
			fix := appendFix(p, fn, assign, target, call)
			p.Report(call.Pos(), fix,
				"append to %q captured from the spawning goroutine; write results by index into a pre-sized slice instead",
				target.Name)
			return
		}
		p.Reportf(lhs.Pos(),
			"%s writes captured variable %q; pass it in as a parameter or write into a per-worker slot",
			kind, target.Name)
	case *ast.IndexExpr:
		base, ok := ast.Unparen(target.X).(*ast.Ident)
		if !ok || capturedVar(p, fn, base) == nil {
			return
		}
		if mentionsLocal(p, fn, target.Index) {
			return // index-based ownership: disjoint slot per worker
		}
		p.Reportf(lhs.Pos(),
			"%s writes captured %q at an index not derived from a worker-local variable; workers must own disjoint slots",
			kind, base.Name)
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(target.X).(*ast.Ident)
		if !ok || capturedVar(p, fn, base) == nil {
			return
		}
		p.Reportf(lhs.Pos(),
			"%s writes field %s of captured %q; pass the struct in as a parameter so each worker owns its own",
			kind, target.Sel.Name, base.Name)
	}
}

// capturedVar resolves id to a variable declared outside the literal
// (shared with the spawning scope), or nil when the variable is
// worker-private (a parameter or body local).
func capturedVar(p *Pass, fn *ast.FuncLit, id *ast.Ident) *types.Var {
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if v.Pos() >= fn.Pos() && v.Pos() <= fn.End() {
		return nil
	}
	return v
}

// mentionsLocal reports whether expr references any variable declared
// inside the literal — the marker of index-based ownership.
func mentionsLocal(p *Pass, fn *ast.FuncLit, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := p.Info.Uses[id].(*types.Var); ok &&
			v.Pos() >= fn.Pos() && v.Pos() <= fn.End() {
			found = true
		}
		return !found
	})
	return found
}

// appendToSame reports whether assign is the self-append idiom
// `x = append(x, ...)` targeting the given ident, returning the
// append call.
func appendToSame(p *Pass, assign *ast.AssignStmt, target *ast.Ident) *ast.CallExpr {
	if assign == nil || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinAppend(p, call) || len(call.Args) == 0 {
		return nil
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok || p.Info.Uses[arg] != p.Info.Uses[target] {
		return nil
	}
	return call
}

// appendFix rewrites `xs = append(xs, e)` as `xs[i] = e`, where i is
// the worker's sole integer parameter. Nil when the literal has no
// unambiguous index parameter or the append pushes multiple elements.
func appendFix(p *Pass, fn *ast.FuncLit, assign *ast.AssignStmt, target *ast.Ident, call *ast.CallExpr) *SuggestedFix {
	if len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return nil
	}
	idx := soleIntParam(p, fn)
	if idx == "" {
		return nil
	}
	var elem bytes.Buffer
	if err := printer.Fprint(&elem, p.Fset, call.Args[1]); err != nil {
		return nil
	}
	return &SuggestedFix{
		Description: "write the element by worker index instead of appending",
		Edits: []TextEdit{{
			Pos:     assign.Pos(),
			End:     assign.End(),
			NewText: target.Name + "[" + idx + "] = " + elem.String(),
		}},
	}
}

// soleIntParam returns the name of the literal's only integer-typed
// parameter, or "" when there is none or more than one.
func soleIntParam(p *Pass, fn *ast.FuncLit) string {
	name := ""
	for _, field := range fn.Type.Params.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsInteger == 0 {
			continue
		}
		for _, id := range field.Names {
			if id.Name == "_" {
				continue
			}
			if name != "" {
				return "" // ambiguous
			}
			name = id.Name
		}
	}
	return name
}
