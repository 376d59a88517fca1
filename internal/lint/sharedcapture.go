package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Sharedcapture generalizes sweepsafe's ownership discipline beyond
// the worker-pool idiom, to the concurrent shapes the memserve HTTP
// server and intra-point sharding introduce. Sweepsafe answers "may
// this body write that captured variable?"; sharedcapture answers
// "may this body share that captured *resource* at all?". Three rules,
// applied inside every concurrent body — a `go func` literal, a
// worker-pool kernel, and an http.HandlerFunc-shaped closure
// (two parameters whose types read ResponseWriter and *Request —
// each request runs on its own goroutine, so a handler body is a
// concurrent body by construction):
//
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
		"must not share captured scopes, machines, or maps, and handlers " +
		"must lock before writing captured state",
	Severity: SeverityError,
	Run:      runSharedcapture,
}

func runSharedcapture(p *Pass) {
	if !isSimPath(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if fn, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkConcurrentBody(p, fn, "goroutine", false)
				}
			case *ast.CallExpr:
				if isPoolMethod(p, n) {
					for _, arg := range n.Args {
						if fn, ok := arg.(*ast.FuncLit); ok {
							checkConcurrentBody(p, fn, "worker-pool kernel", false)
						}
					}
				}
			case *ast.FuncLit:
				if isHandlerShaped(n) {
					checkConcurrentBody(p, n, "HTTP handler", true)
					return false // the handler scan covers nested nodes
				}
			}
			return true
		})
	}
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

// checkConcurrentBody applies the sharedcapture rules to one body.
// handler selects the captured-write rule, which only handlers get
// (goroutine and kernel writes are sweepsafe's findings).
func checkConcurrentBody(p *Pass, fn *ast.FuncLit, kind string, handler bool) {
	reportedShared := map[types.Object]bool{}
	locked := false
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
			if handler && !locked {
				for _, lhs := range n.Lhs {
					checkHandlerWrite(p, fn, kind, lhs)
				}
			}
		case *ast.IncDecStmt:
			if handler && !locked {
				checkHandlerWrite(p, fn, kind, n.X)
			}
		case *ast.RangeStmt:
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
			v := capturedVar(p, fn, n)
			if v == nil || reportedShared[v] {
				return true
			}
			if name, shared := sharedSimType(v.Type()); shared {
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
