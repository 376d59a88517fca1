package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
	"strings"
)

// Sharedcapture holds every concurrent body in the simulator — a
// `go func` literal, a kernel passed to any method of a worker pool
// (Run, RunCaptured, ...), and an http.HandlerFunc-shaped closure
// (two parameters whose types read ResponseWriter and *Request — each
// request runs on its own goroutine, so a handler body is a concurrent
// body by construction) — to the parallel-sweep contract: a worker
// owns exactly the state the caller handed it, and shares no
// single-threaded resource. Its rules:
//
//   - a goroutine or kernel that writes a captured variable is flagged
//     unless ownership is explicit: index-based (the write targets an
//     element whose index is derived from a worker-local variable, so
//     each worker touches a disjoint slot) or per-worker (the state
//     arrives as a parameter of the literal, so the caller partitioned
//     it before spawning). Appending to a captured slice is the
//     canonical violation: element order follows the scheduler and
//     concurrent appends race on the slice header. The suggested fix
//     rewrites `xs = append(xs, e)` to a write through the worker's
//     index parameter;
//   - a handler that writes a captured variable is flagged unless the
//     write is dominated by a Lock() call (any mutex — the check is
//     deliberately coarse: handler state must be guarded by *some*
//     lock, and locksafe proves the fine-grained story for
//     mutex-owning structs);
//   - a concurrent body that references a captured probe.Scope,
//     probe.Registry, probe.Tracer, or machine.Machine is flagged:
//     probe registries and simulated machines are single-threaded
//     state machines, and sharing one across goroutines corrupts
//     counters and timing. Pass a per-worker instance as a parameter
//     (the sweep.Pool factory idiom) instead;
//   - a concurrent body that ranges over a captured map is flagged:
//     iteration order is scheduler-visible (byte-determinism breaks)
//     and unsynchronized iteration races with any writer. Snapshot
//     sorted keys before spawning.
var Sharedcapture = &Analyzer{
	Name: "sharedcapture",
	Doc: "concurrent bodies (goroutines, pool kernels, HTTP handlers) " +
		"must own what they write, must not share captured scopes, machines, " +
		"or maps, and handlers must lock before writing captured state",
	Severity: SeverityError,
	Run:      runSharedcapture,
}

func runSharedcapture(p *Pass) {
	if !isSimPath(p.Path) {
		return
	}
	for _, f := range p.Files {
		walkConcurrent(p, f, true)
	}
}

// walkConcurrent checks every concurrent body under root. shared is
// false below an HTTP handler: the handler's own check already applied
// the resource rules to everything nested in it, so goroutines and
// kernels spawned there get only the ownership rules.
func walkConcurrent(p *Pass, root ast.Node, shared bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if fn, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkConcurrentBody(p, fn, "goroutine", false, shared)
			}
		case *ast.CallExpr:
			if isPoolMethod(p, n) {
				for _, arg := range n.Args {
					if fn, ok := arg.(*ast.FuncLit); ok {
						checkConcurrentBody(p, fn, "worker-pool kernel", false, shared)
					}
				}
			}
		case *ast.FuncLit:
			if shared && isHandlerShaped(n) {
				checkConcurrentBody(p, n, "HTTP handler", true, true)
				walkConcurrent(p, n.Body, false)
				return false
			}
		}
		return true
	})
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

// isHandlerShaped reports whether the literal has the
// http.HandlerFunc signature shape: exactly two parameters whose
// types read as a ResponseWriter and a *Request. The match is
// syntactic on the type names so fixture packages (and any future
// server package) are recognized without loading net/http.
func isHandlerShaped(fn *ast.FuncLit) bool {
	params := fn.Type.Params.List
	if len(params) != 2 {
		return false
	}
	return typeNameEndsWith(params[0].Type, "ResponseWriter") &&
		isPointerToNameSuffix(params[1].Type, "Request")
}

// typeNameEndsWith reports whether the type expression is an
// identifier or qualified name ending in suffix.
func typeNameEndsWith(e ast.Expr, suffix string) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return strings.HasSuffix(t.Name, suffix)
	case *ast.SelectorExpr:
		return strings.HasSuffix(t.Sel.Name, suffix)
	}
	return false
}

func isPointerToNameSuffix(e ast.Expr, suffix string) bool {
	star, ok := ast.Unparen(e).(*ast.StarExpr)
	return ok && typeNameEndsWith(star.X, suffix)
}

// checkConcurrentBody applies the rules to one body. Goroutines and
// kernels get the ownership rules for captured writes; a handler gets
// the lock rule instead. shared adds the resource rules (captured
// scopes, machines, and maps).
func checkConcurrentBody(p *Pass, fn *ast.FuncLit, kind string, handler, shared bool) {
	reportedShared := map[types.Object]bool{}
	locked := false
	write := func(assign *ast.AssignStmt, lhs ast.Expr) {
		if !handler {
			checkWorkerWrite(p, fn, kind, assign, lhs)
		} else if !locked {
			checkHandlerWrite(p, fn, kind, lhs)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					locked = true
				case "Unlock", "RUnlock":
					locked = false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(n, lhs)
			}
		case *ast.IncDecStmt:
			write(nil, n.X)
		case *ast.RangeStmt:
			if !shared {
				break
			}
			if base, v := capturedRoot(p, fn, n.X); v != nil {
				if t := p.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						p.Reportf(n.Pos(),
							"%s ranges over captured map %q; iteration is unsynchronized and "+
								"order-nondeterministic — snapshot sorted keys before spawning",
							kind, base.Name)
					}
				}
			}
		case *ast.Ident:
			if !shared {
				break
			}
			v := capturedVar(p, fn, n)
			if v == nil || reportedShared[v] {
				return true
			}
			if name, isShared := sharedSimType(v.Type()); isShared {
				reportedShared[v] = true
				p.Reportf(n.Pos(),
					"%s captures %s %q shared with the spawning scope; %s is single-threaded "+
						"state — pass a per-worker instance as a parameter",
					kind, name, n.Name, name)
			}
		}
		return true
	})
}

// checkWorkerWrite classifies one write target inside a goroutine or
// kernel body. assign is the enclosing assignment (nil for ++/--),
// used to detect the append pattern and build its fix.
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

// checkHandlerWrite flags an unguarded write to captured state inside
// an HTTP-handler body.
func checkHandlerWrite(p *Pass, fn *ast.FuncLit, kind string, lhs ast.Expr) {
	base, v := capturedRoot(p, fn, lhs)
	if v == nil {
		return
	}
	p.Reportf(lhs.Pos(),
		"%s writes captured %q without holding a lock; concurrent requests race — "+
			"guard the write with a mutex or keep handler state request-local",
		kind, base.Name)
}

// capturedRoot unwraps an expression (selectors, indexes, stars,
// parens) to its base identifier and reports whether that identifier
// is captured from outside the literal.
func capturedRoot(p *Pass, fn *ast.FuncLit, e ast.Expr) (*ast.Ident, *types.Var) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, capturedVar(p, fn, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, nil
		}
	}
}

// sharedSimType reports whether t is one of the simulator's
// single-threaded shared resources: probe.Scope, probe.Registry,
// probe.Tracer, or machine.Machine (matched by package-path suffix,
// so fixtures importing the real packages resolve).
func sharedSimType(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return "", false
	}
	path, name := n.Obj().Pkg().Path(), n.Obj().Name()
	switch {
	case pathHasSuffix(path, "internal/probe") &&
		(name == "Scope" || name == "Registry" || name == "Tracer"):
		return "probe." + name, true
	case pathHasSuffix(path, "internal/machine") && name == "Machine":
		return "machine." + name, true
	}
	return "", false
}

func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
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
