package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Statereset enforces the simulator's cold-start invariant: every
// sweep point is its own experiment, so a ColdReset must restore all
// machine state that a simulation run can dirty. PR 2 shipped exactly
// the bug this analyzer exists for — a node's write-combine run state
// survived ColdReset and made one grid point's timing depend on its
// predecessor.
//
// The check is interprocedural. Starting from every ColdReset method
// in the module it builds the *reset closure* — all functions
// statically reachable from a ColdReset — and then, for every struct
// type whose methods participate in that closure, verifies that each
// field the simulation mutates (written anywhere outside the closure
// and outside the type's constructors) is restored somewhere inside
// the closure: reassigned, element-assigned, passed to a closure
// function, or the receiver of a closure method call.
//
// Intentionally-warm state (an address-independent route cache,
// wiring installed once at machine construction) is declared with a
// `//simlint:ignore statereset <reason>` directive on the field's
// declaration line.
var Statereset = &Analyzer{
	Name: "statereset",
	Doc: "verify every simulation-mutated field of a ColdReset-reachable " +
		"type is restored on some reset path",
	Severity:  SeverityError,
	RunModule: runStatereset,
}

const coldResetName = "ColdReset"

type fieldKey struct {
	typeKey string
	field   string
}

func runStatereset(p *ModulePass) {
	ix := p.Index

	// Roots: every ColdReset method in the module.
	var roots []string
	for _, fi := range ix.Funcs() {
		if fi.Decl.Name.Name == coldResetName && fi.RecvType != "" {
			roots = append(roots, fi.Key)
		}
	}
	if len(roots) == 0 {
		return
	}
	closure := ix.Closure(roots)

	// Checked types: receiver types of the closure's methods.
	checked := map[string]bool{}
	for key := range closure {
		if fi := ix.Func(key); fi != nil && fi.RecvType != "" {
			checked[fi.RecvType] = true
		}
	}

	reset := map[fieldKey]bool{}
	mutated := map[fieldKey]token.Pos{}
	for _, fi := range ix.Funcs() {
		if closure[fi.Key] {
			collectResets(fi, closure, reset)
		} else if !isConstructor(fi, ix) {
			collectMutations(fi, mutated)
		}
	}

	// Report per type, fields in declaration order.
	keys := make([]string, len(checked))
	i := 0
	for k := range checked {
		keys[i] = k
		i++
	}
	sort.Strings(keys)
	for _, tkey := range keys {
		si := ix.Struct(tkey)
		if si == nil {
			continue // non-struct receiver (named slice, ...)
		}
		for _, field := range si.Type.Fields.List {
			for _, name := range field.Names {
				fk := fieldKey{tkey, name.Name}
				pos, isMutated := mutated[fk]
				if !isMutated || reset[fk] {
					continue
				}
				fix := zeroingFix(p, ix, closure, si, field, name.Name)
				// The write site as file.go:line, so the message reads
				// the same from every checkout.
				at := p.Fset.Position(pos)
				p.Report(name.Pos(), fix,
					"field %s.%s is written during simulation (e.g. at %s:%d) but no ColdReset path resets it; state leaks across sweep points",
					si.Spec.Name.Name, name.Name, filepath.Base(at.Filename), at.Line)
			}
		}
	}
}

// isConstructor reports whether fi is a constructor of some module
// type: a plain function whose results include a (pointer to a)
// named type of fi's own package. Field writes there are
// initialization, not simulation state.
func isConstructor(fi *FuncInfo, ix *Index) bool {
	if fi.RecvType != "" || fi.Decl.Type.Results == nil {
		return false
	}
	for _, res := range fi.Decl.Type.Results.List {
		t := fi.Pkg.Info.TypeOf(res.Type)
		if t == nil {
			continue
		}
		key := typeKey(t)
		if key != "" && strings.HasPrefix(key, fi.Pkg.Pkg.Path()+".") {
			return true
		}
	}
	return false
}

// collectMutations records field writes outside the reset closure:
// assignments and inc/dec through selector chains, plus fields whose
// address is taken (mutation can then happen anywhere).
func collectMutations(fi *FuncInfo, out map[fieldKey]token.Pos) {
	record := func(e ast.Expr) {
		sel := selectorRoot(e)
		if sel == nil {
			return
		}
		if tkey, field, ok := fieldRef(fi.Pkg, sel); ok {
			fk := fieldKey{tkey, field}
			if _, seen := out[fk]; !seen {
				out[fk] = sel.Sel.Pos()
			}
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				record(n.X)
			}
		}
		return true
	})
}

// collectResets records the fields a closure function restores: any
// selector that is assigned (directly or via index), has a method
// called on it, or is passed as an argument to another closure
// function.
func collectResets(fi *FuncInfo, closure map[string]bool, out map[fieldKey]bool) {
	record := func(e ast.Expr) {
		sel := selectorRoot(e)
		if sel == nil {
			return
		}
		if tkey, field, ok := fieldRef(fi.Pkg, sel); ok {
			out[fieldKey{tkey, field}] = true
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		case *ast.CallExpr:
			// A method called on a field resets the field's
			// internals (n.wb.Reset()); a field passed to a closure
			// function delegates its reset (coldNodes(m.nodes)).
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if _, isMethod := fi.Pkg.Info.Selections[sel]; isMethod {
					record(sel.X)
				}
			}
			if key := funcKey(calleeOf(fi.Pkg, n)); key != "" && closure[key] {
				for _, arg := range n.Args {
					record(arg)
				}
			}
		}
		return true
	})
}

// zeroingFix builds the suggested fix for an unreset field: append a
// zeroing assignment to a closure method of the field's own type.
// Returns nil when no suitable method or zero expression exists.
func zeroingFix(p *ModulePass, ix *Index, closure map[string]bool, si *StructInfo, field *ast.Field, name string) *SuggestedFix {
	target := resetMethodFor(ix, closure, si.Key)
	if target == nil {
		return nil
	}
	recv := receiverName(target.Decl)
	if recv == "" {
		return nil
	}
	ft := si.Pkg.Info.TypeOf(field.Type)
	zero := zeroExpr(ft, si.Pkg.Pkg)
	if zero == "" {
		return nil
	}
	stmt := fmt.Sprintf("\n%s.%s = %s\n", recv, name, zero)
	return &SuggestedFix{
		Description: fmt.Sprintf("zero %s.%s at the end of %s", si.Spec.Name.Name, name, target.Decl.Name.Name),
		Edits: []TextEdit{{
			Pos:     target.Decl.Body.Rbrace,
			End:     target.Decl.Body.Rbrace,
			NewText: stmt,
		}},
	}
}

// resetMethodFor picks the closure method of the given type that a
// zeroing fix should extend: ColdReset itself when present, otherwise
// the alphabetically first closure method (deterministic).
func resetMethodFor(ix *Index, closure map[string]bool, tkey string) *FuncInfo {
	var first *FuncInfo
	for _, fi := range ix.Funcs() { // sorted, so "first" is deterministic
		if !closure[fi.Key] || fi.RecvType != tkey {
			continue
		}
		if fi.Decl.Name.Name == coldResetName {
			return fi
		}
		if first == nil {
			first = fi
		}
	}
	return first
}

// receiverName returns the receiver identifier of a method decl, or
// "" when unnamed or blank.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 || len(d.Recv.List[0].Names) == 0 {
		return ""
	}
	name := d.Recv.List[0].Names[0].Name
	if name == "_" {
		return ""
	}
	return name
}

// zeroExpr renders the zero value of t as it would be written inside
// pkg, or "" for types without a simple spelling.
func zeroExpr(t types.Type, pkg *types.Package) string {
	if t == nil {
		return ""
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsNumeric != 0:
			return "0"
		case u.Info()&types.IsBoolean != 0:
			return "false"
		case u.Info()&types.IsString != 0:
			return `""`
		}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil"
	case *types.Struct:
		return types.TypeString(t, types.RelativeTo(pkg)) + "{}"
	}
	return ""
}
