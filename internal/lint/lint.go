// Package lint is the simulator's domain-specific static-analysis
// suite. The paper's methodology stands on trustworthy numbers: the
// units package makes a mixed-up unit a type error, DESIGN.md
// promises a fully deterministic simulator, and every cycle a
// component computes must land in an accumulator somewhere. Go's type
// system cannot enforce the last mile of any of those — a
// float64(t) cast launders a units.Time, a discarded return value
// silently drops latency, and map iteration reorders figure output —
// so simlint checks them mechanically.
//
// The suite is stdlib-only (go/ast, go/parser, go/types with the
// source importer); cmd/simlint drives it over the module and
// scripts/check.sh makes it part of tier-1.
//
// Diagnostics can be suppressed with a directive comment on the
// offending line or the line directly above it:
//
//	//simlint:ignore <analyzer> <reason>
//
// The analyzer name may be "all". A directive without a reason is
// itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Severity string         `json:"severity"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	// Fix, when non-nil, is a mechanical correction simlint -fix can
	// apply.
	Fix *SuggestedFix `json:"suggested_fix,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// SuggestedFix is a set of source edits that resolves a diagnostic.
type SuggestedFix struct {
	Description string     `json:"description"`
	Edits       []TextEdit `json:"edits"`
}

// TextEdit replaces the source range [Pos, End) with NewText. Pos ==
// End is a pure insertion.
type TextEdit struct {
	Pos     token.Pos `json:"-"`
	End     token.Pos `json:"-"`
	NewText string    `json:"new_text"`
	// File/Line/Col/EndLine/EndCol are the rendered positions for
	// JSON consumers, filled in by Run.
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	EndLine int    `json:"end_line"`
	EndCol  int    `json:"end_col"`
}

// Severity levels: findings that make the simulator's numbers wrong
// are errors; driver-level diagnostics (malformed directives) are
// warnings. Both fail the run — severity labels impact, not exit
// status.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Analyzer is one named check. Run analyzers see one type-checked
// package at a time; RunModule analyzers see every package of the
// invocation at once (interprocedural checks). Exactly one of the two
// is set.
type Analyzer struct {
	Name      string
	Doc       string
	Severity  string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// All lists every analyzer in the suite, in reporting order.
var All = []*Analyzer{Unitsafe, Cycleflow, Statereset, Sweepsafe, Determinism, Probeguard, Attrcover, Snapshotsafe, Locksafe, Sharedcapture, Atomicwrite}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Path  string // import path ("repro/internal/torus")
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, nil, format, args...)
}

// Report records a diagnostic at pos with an optional suggested fix.
func (p *Pass) Report(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	position := p.Fset.Position(pos)
	if fix != nil {
		for i := range fix.Edits {
			e := &fix.Edits[i]
			pp, pe := p.Fset.Position(e.Pos), p.Fset.Position(e.End)
			e.File, e.Line, e.Col = pp.Filename, pp.Line, pp.Column
			e.EndLine, e.EndCol = pe.Line, pe.Column
		}
	}
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer.Name,
		Severity: p.analyzer.Severity,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// TypeOf is a nil-safe shorthand for Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ModulePass carries a module analyzer's view of every loaded
// package at once, plus the interprocedural index.
type ModulePass struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Index *Index

	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, nil, format, args...)
}

// Report records a diagnostic at pos with an optional suggested fix.
func (p *ModulePass) Report(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	pass := Pass{Fset: p.Fset, analyzer: p.analyzer, sink: p.sink}
	pass.Report(pos, fix, format, args...)
}

// Run applies the analyzers to every package and returns the
// surviving diagnostics (ignore directives applied), sorted by
// position then analyzer. Package analyzers run per package; module
// analyzers run once over the whole load with the shared index.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analyzePackage(pkg, analyzers)...)
	}
	diags = append(diags, analyzeModule(pkgs, analyzers)...)
	sortDiagnostics(diags)
	return diags
}

// analyzePackage runs the package-level analyzers over one package
// and returns its surviving diagnostics: malformed-directive findings
// plus analyzer findings not suppressed by the package's own
// directives (package analyzers only report positions inside their
// own package, so the local ignore set is the whole story). This is
// the cacheable per-package unit of the incremental driver.
func analyzePackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	ig, diags := collectIgnores(pkg.Fset, pkg.Files)
	var raw []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			analyzer: a,
			sink:     &raw,
		}
		a.Run(pass)
	}
	for _, d := range raw {
		if !ig.suppressed(d) {
			diags = append(diags, d)
		}
	}
	sortDiagnostics(diags)
	return diags
}

// analyzeModule runs the module-level analyzers over the whole load
// with a shared index, suppressing through the union of every
// package's directives. Directive diagnostics are not re-emitted
// here; analyzePackage owns them.
func analyzeModule(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var module []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			module = append(module, a)
		}
	}
	if len(module) == 0 || len(pkgs) == 0 {
		return nil
	}
	ig := ignoreSet{}
	for _, pkg := range pkgs {
		pkgIg, _ := collectIgnores(pkg.Fset, pkg.Files)
		for file, lines := range pkgIg {
			ig[file] = lines
		}
	}
	ix := buildIndex(pkgs)
	var raw []Diagnostic
	for _, a := range module {
		a.RunModule(&ModulePass{Fset: pkgs[0].Fset, Pkgs: pkgs, Index: ix, analyzer: a, sink: &raw})
	}
	var diags []Diagnostic
	for _, d := range raw {
		if !ig.suppressed(d) {
			diags = append(diags, d)
		}
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by position then analyzer — the
// stable output order every driver path shares.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreSet maps file -> line -> analyzer names ("all" wildcards).
type ignoreSet map[string]map[int]map[string]bool

func (ig ignoreSet) suppressed(d Diagnostic) bool {
	lines := ig[d.File]
	if lines == nil {
		return false
	}
	names := lines[d.Line]
	return names != nil && (names[d.Analyzer] || names["all"])
}

const ignorePrefix = "//simlint:ignore"

// parseDirective validates the text of one //simlint:ignore comment
// and returns the analyzer name and the reason. The error text is the
// diagnostic message for malformed directives.
func parseDirective(text string) (name, reason string, err error) {
	rest := strings.TrimPrefix(text, ignorePrefix)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", fmt.Errorf("simlint:ignore directive needs an analyzer name and a reason")
	}
	name = fields[0]
	if name != "all" && ByName(name) == nil {
		return "", "", fmt.Errorf("simlint:ignore names unknown analyzer %q", name)
	}
	if len(fields) < 2 {
		return "", "", fmt.Errorf("simlint:ignore %s needs a reason", name)
	}
	return name, strings.Join(fields[1:], " "), nil
}

// collectIgnores scans comments for //simlint:ignore directives. A
// directive suppresses matching diagnostics on its own line and on
// the next line (so it can sit above the offending statement).
// Malformed directives (no analyzer, unknown analyzer, or no reason)
// are reported as diagnostics themselves.
func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Diagnostic) {
	ig := ignoreSet{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				name, _, err := parseDirective(c.Text)
				if err != nil {
					bad = append(bad, Diagnostic{
						Analyzer: "simlint", Severity: SeverityWarning, Pos: pos,
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: err.Error(),
					})
					continue
				}
				file := pos.Filename
				if ig[file] == nil {
					ig[file] = map[int]map[string]bool{}
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if ig[file][line] == nil {
						ig[file][line] = map[string]bool{}
					}
					ig[file][line][name] = true
				}
			}
		}
	}
	return ig, bad
}

// ---- shared type helpers ----

// unitsPathSuffix identifies the units package wherever the module
// lives (fixtures import the real one).
const unitsPathSuffix = "internal/units"

func isUnitsPkg(p *types.Package) bool {
	return p != nil && (p.Path() == unitsPathSuffix ||
		strings.HasSuffix(p.Path(), "/"+unitsPathSuffix))
}

// unitType reports whether t is one of the unit-carrying named types
// (Time, Bytes, BytesPerSec, Flops): defined in internal/units with a
// numeric underlying type.
func unitType(t types.Type) (*types.Named, bool) {
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || !isUnitsPkg(n.Obj().Pkg()) {
		return nil, false
	}
	b, ok := n.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsNumeric == 0 {
		return nil, false
	}
	return n, true
}

// unitName renders a unit type as "units.Time".
func unitName(n *types.Named) string { return "units." + n.Obj().Name() }

// basicNumeric reports whether t is a plain (non-unit) numeric type
// such as float64 or int64.
func basicNumeric(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// isConversion reports whether call is a type conversion and returns
// the target type.
func isConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return nil, false
	}
	return tv.Type, true
}
