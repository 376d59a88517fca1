package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixtures under testdata/src each hold one package: *_bad packages
// mark every expected finding with a `// want:<analyzer> <substring>`
// comment on the offending line; *_ok packages must come out clean.

var wantRe = regexp.MustCompile(`// want:(\w+) (.+)$`)

type expectation struct {
	file     string // base name
	line     int
	analyzer string
	substr   string
	matched  bool
}

// testLoader is shared by the fixture and repo tests, so the module
// and its imports (probe, units, ...) are type-checked from source
// once per test binary rather than once per test. Loaders are not safe
// for concurrent use; none of its users runs in parallel.
var testLoader = NewLoader()

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := testLoader.LoadDir(dir, "repro/internal/lint/testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", name)
	}
	return pkg
}

func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				wants = append(wants, &expectation{
					file: e.Name(), line: line, analyzer: m[1], substr: m[2],
				})
			}
		}
		f.Close()
	}
	return wants
}

// testFixture runs the analyzers over one fixture package and matches
// diagnostics 1:1 against its want-markers (none, for *_ok packages).
func testFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	testFixtures(t, []string{name}, analyzers...)
}

// testFixtures loads several fixture packages into one Run — the
// interprocedural analyzers need caller and callee together — and
// matches diagnostics against the union of their want-markers.
func testFixtures(t *testing.T, names []string, analyzers ...*Analyzer) {
	t.Helper()
	var pkgs []*Package
	var wants []*expectation
	for _, name := range names {
		pkgs = append(pkgs, loadFixture(t, name))
		wants = append(wants, collectWants(t, filepath.Join("testdata", "src", name))...)
	}
	diags := Run(pkgs, analyzers)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if filepath.Base(d.File) == w.file && d.Line == w.line &&
				d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d [%s] containing %q",
				w.file, w.line, w.analyzer, w.substr)
		}
	}
}

func TestUnitsafeCatchesViolations(t *testing.T) { testFixture(t, "unitsafe_bad", Unitsafe) }
func TestUnitsafeCleanPass(t *testing.T)         { testFixture(t, "unitsafe_ok", Unitsafe) }

// Cycleflow's fixtures span two packages on purpose: the dropped
// cross-package return, the dead cost local fed from another package,
// and the ignored cost parameter are exactly what the retired
// intraprocedural cycledrop could not see.
func TestCycleflowCatchesViolations(t *testing.T) {
	testFixtures(t, []string{"cycleflow_dep", "cycleflow_bad"}, Cycleflow)
}
func TestCycleflowCleanPass(t *testing.T) { testFixture(t, "cycleflow_ok", Cycleflow) }

func TestStateresetCatchesViolations(t *testing.T) {
	testFixture(t, "statereset_bad", Statereset)
}
func TestStateresetCleanPass(t *testing.T) { testFixture(t, "statereset_ok", Statereset) }

// The sweepsafe fixtures hold sharedcapture's ownership rules (the
// rules of the former sweepsafe analyzer, folded into it).
func TestSweepsafeCatchesViolations(t *testing.T) {
	testFixture(t, "sweepsafe_bad", Sharedcapture)
}
func TestSweepsafeCleanPass(t *testing.T) { testFixture(t, "sweepsafe_ok", Sharedcapture) }

func TestDeterminismCatchesViolations(t *testing.T) {
	testFixture(t, "determinism_bad", Determinism)
}
func TestDeterminismCleanPass(t *testing.T) { testFixture(t, "determinism_ok", Determinism) }

func TestProbeguardCatchesViolations(t *testing.T) {
	testFixture(t, "probeguard_bad", Probeguard)
}
func TestProbeguardCleanPass(t *testing.T) { testFixture(t, "probeguard_ok", Probeguard) }

func TestAttrcoverCatchesViolations(t *testing.T) {
	testFixture(t, "attrcover_bad", Attrcover)
}
func TestAttrcoverCleanPass(t *testing.T) { testFixture(t, "attrcover_ok", Attrcover) }

func TestSnapshotsafeCatchesViolations(t *testing.T) {
	testFixture(t, "snapshotsafe_bad", Snapshotsafe)
}
func TestSnapshotsafeCleanPass(t *testing.T) { testFixture(t, "snapshotsafe_ok", Snapshotsafe) }

func TestLocksafeCatchesViolations(t *testing.T) {
	testFixture(t, "locksafe_bad", Locksafe)
}
func TestLocksafeCleanPass(t *testing.T) { testFixture(t, "locksafe_ok", Locksafe) }

func TestSharedcaptureCatchesViolations(t *testing.T) {
	testFixture(t, "sharedcapture_bad", Sharedcapture)
}
func TestSharedcaptureCleanPass(t *testing.T) { testFixture(t, "sharedcapture_ok", Sharedcapture) }

func TestAtomicwriteCatchesViolations(t *testing.T) {
	testFixture(t, "atomicwrite_bad", Atomicwrite)
}
func TestAtomicwriteCleanPass(t *testing.T) { testFixture(t, "atomicwrite_ok", Atomicwrite) }

// TestStateresetSeededBugFailsRun pins the acceptance criterion
// directly: reintroducing the PR 2 write-combine bug (a ColdReset
// that forgets run state) must make a simlint run report findings,
// i.e. cmd/simlint exits non-zero.
func TestStateresetSeededBugFailsRun(t *testing.T) {
	pkg := loadFixture(t, "statereset_bad")
	diags := Run([]*Package{pkg}, All)
	if len(diags) == 0 {
		t.Fatal("seeded ColdReset leak produced no findings; simlint would exit 0")
	}
	for _, d := range diags {
		if d.Analyzer == "statereset" && strings.Contains(d.Message, "storeRun") {
			return
		}
	}
	t.Fatalf("no statereset finding names the leaked field, got %v", diags)
}

// stripDirectives removes every //simlint:ignore comment from the
// package's syntax, reporting whether any were present.
func stripDirectives(pkg *Package) bool {
	found := false
	for _, f := range pkg.Files {
		cgs := f.Comments[:0]
		for _, cg := range f.Comments {
			var list = cg.List[:0]
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					list = append(list, c)
				} else {
					found = true
				}
			}
			cg.List = list
			if len(list) > 0 {
				cgs = append(cgs, cg)
			}
		}
		f.Comments = cgs
	}
	return found
}

// TestIgnoreDirectiveSuppresses proves the determinism_ok fixture's
// sorted-keys loop only passes because of its directive.
func TestIgnoreDirectiveSuppresses(t *testing.T) {
	pkg := loadFixture(t, "determinism_ok")
	diags := Run([]*Package{pkg}, []*Analyzer{Determinism})
	if len(diags) != 0 {
		t.Fatalf("directive did not suppress: %v", diags)
	}
	// Strip the directive comments and the finding must come back.
	if !stripDirectives(pkg) {
		t.Fatal("fixture lost its ignore directive")
	}
	diags = Run([]*Package{pkg}, []*Analyzer{Determinism})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "appends to a slice") {
		t.Fatalf("want exactly the suppressed finding back, got %v", diags)
	}
}

// TestIgnoreAllAndMultiLineDirectives covers the blanket "all"
// wildcard and directives above multi-line expressions and
// statements.
func TestIgnoreAllAndMultiLineDirectives(t *testing.T) {
	pkg := loadFixture(t, "ignore_all")
	diags := Run([]*Package{pkg}, All)
	if len(diags) != 0 {
		t.Fatalf("directives did not suppress: %v", diags)
	}
	if !stripDirectives(pkg) {
		t.Fatal("fixture lost its directives")
	}
	diags = Run([]*Package{pkg}, All)
	if len(diags) != 4 {
		t.Fatalf("want the 4 suppressed findings back without directives, got %v", diags)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["cycleflow"] != 3 || byAnalyzer["determinism"] != 1 {
		t.Fatalf("want 3 cycleflow + 1 determinism, got %v", byAnalyzer)
	}
}

// TestMalformedIgnoreDirectives: the driver reports directives that
// name no analyzer, an unknown analyzer (the retired cycledrop among
// them), or give no reason.
func TestMalformedIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "ignore_bad")
	diags := Run([]*Package{pkg}, []*Analyzer{Unitsafe})
	wantSubstrs := []string{
		"needs an analyzer name",
		"unknown analyzer",
		"needs a reason",
		"unknown analyzer",
	}
	if len(diags) != len(wantSubstrs) {
		t.Fatalf("want %d directive diagnostics, got %v", len(wantSubstrs), diags)
	}
	for i, want := range wantSubstrs {
		if diags[i].Analyzer != "simlint" || !strings.Contains(diags[i].Message, want) {
			t.Errorf("diag %d = %s, want substring %q", i, diags[i], want)
		}
	}
}

func TestExpandResolvesImportPaths(t *testing.T) {
	refs, err := Expand([]string{"repro/internal/units"})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0].Path != "repro/internal/units" {
		t.Fatalf("Expand = %v", refs)
	}
	if _, err := os.Stat(refs[0].Dir); err != nil {
		t.Fatalf("resolved dir does not exist: %v", err)
	}
}

// TestSnapshotsafeOnSurfaceCodec runs the analyzer over the real
// surface package: the Surface codec is the first production snapshot
// it guards, and it must come out clean.
func TestSnapshotsafeOnSurfaceCodec(t *testing.T) {
	pkgs, err := testLoader.Load([]string{"repro/internal/surface"})
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(pkgs, []*Analyzer{Snapshotsafe}); len(diags) != 0 {
		t.Fatalf("surface codec is not snapshot-safe: %v", diags)
	}
}

// TestSnapshotsafeOnStoreManifest runs the analyzer over the real
// store package: the manifest codec is the surface store's index and
// must come out clean.
func TestSnapshotsafeOnStoreManifest(t *testing.T) {
	pkgs, err := testLoader.Load([]string{"repro/internal/store"})
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(pkgs, []*Analyzer{Snapshotsafe}); len(diags) != 0 {
		t.Fatalf("store manifest codec is not snapshot-safe: %v", diags)
	}
}

// TestRepoIsLintClean keeps the whole module simlint-clean from
// inside tier-1: the same invariant scripts/check.sh enforces.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := testLoader.Load([]string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected the whole module, loaded %d packages", len(pkgs))
	}
	for _, d := range Run(pkgs, All) {
		t.Errorf("%s", d)
	}
}
