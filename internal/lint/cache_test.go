package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// driverPatterns is a small two-package load (surface imports units)
// used by the driver tests: big enough to exercise dependencies,
// small enough to type-check quickly.
var driverPatterns = []string{"repro/internal/units", "repro/internal/surface"}

func diagsJSON(t *testing.T, diags []Diagnostic) string {
	t.Helper()
	b, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestKeysInvalidation replays an edit against the real module
// dependency graph: changing one package's content hash must change
// exactly its own key, the keys of its (transitive) dependents, and
// the module key — nothing else.
func TestKeysInvalidation(t *testing.T) {
	metas, refs, err := resolveMetas([]string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) < 20 {
		t.Fatalf("expected the whole module, resolved %d packages", len(metas))
	}
	hashes, err := hashAll(refs)
	if err != nil {
		t.Fatal(err)
	}
	before, moduleBefore := Keys(metas, hashes, All)

	const edited = "repro/internal/units"
	mutated := make(map[string]string, len(hashes))
	for _, ref := range refs {
		mutated[ref.Path] = hashes[ref.Path]
	}
	mutated[edited] = "x-fake-hash-simulating-an-edit"
	after, moduleAfter := Keys(metas, mutated, All)

	if moduleAfter == moduleBefore {
		t.Error("module key survived an edit")
	}
	for _, m := range metas {
		depends := m.Ref.Path == edited
		for _, dep := range m.Deps {
			if dep == edited {
				depends = true
			}
		}
		changed := before[m.Ref.Path] != after[m.Ref.Path]
		if changed != depends {
			t.Errorf("%s: key changed=%v but depends-on-%s=%v",
				m.Ref.Path, changed, edited, depends)
		}
	}

	// A different analyzer set must also change every key.
	fewer, moduleFewer := Keys(metas, hashes, []*Analyzer{Unitsafe})
	if moduleFewer == moduleBefore || fewer[edited] == before[edited] {
		t.Error("analyzer set is not part of the cache key")
	}
}

// TestDriverWarmMatchesCold: a second run over an unchanged tree is
// served entirely from cache — no packages loaded — and its findings
// serialize byte-identically to both the cold run and the plain
// (uncached, unparallel) Run path.
func TestDriverWarmMatchesCold(t *testing.T) {
	d := &Driver{Analyzers: All, CacheDir: t.TempDir()}
	cold, err := d.Run(driverPatterns)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.PkgHits != 0 || cold.Stats.Loaded == 0 {
		t.Fatalf("cold run stats: %+v", cold.Stats)
	}
	warm, err := d.Run(driverPatterns)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.PkgHits != warm.Stats.Packages || !warm.Stats.ModuleHit || warm.Stats.Loaded != 0 {
		t.Fatalf("warm run was not fully cached: %+v", warm.Stats)
	}
	if a, b := diagsJSON(t, cold.Diags), diagsJSON(t, warm.Diags); a != b {
		t.Errorf("warm findings differ from cold:\ncold %s\nwarm %s", a, b)
	}

	pkgs, err := NewLoader().Load(driverPatterns)
	if err != nil {
		t.Fatal(err)
	}
	plain := Run(pkgs, All)
	if a, b := diagsJSON(t, plain), diagsJSON(t, cold.Diags); a != b {
		t.Errorf("driver findings differ from Run:\nRun    %s\ndriver %s", a, b)
	}
}

// TestDriverJobsByteIdentical: the worker count is invisible in the
// output — findings and the resulting cache directories are
// byte-identical across -j settings.
func TestDriverJobsByteIdentical(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var out [2]string
	for i, jobs := range []int{1, 8} {
		d := &Driver{Analyzers: All, Jobs: jobs, CacheDir: dirs[i]}
		res, err := d.Run(driverPatterns)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = diagsJSON(t, res.Diags)
	}
	if out[0] != out[1] {
		t.Errorf("findings depend on -j:\n-j1 %s\n-j8 %s", out[0], out[1])
	}
	if a, b := readTree(t, dirs[0]), readTree(t, dirs[1]); !reflect.DeepEqual(a, b) {
		t.Errorf("cache contents depend on -j:\n-j1 %v\n-j8 %v", keysOf(a), keysOf(b))
	}
}

func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

func keysOf(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestStaleCacheVersionIgnored: an entry from a previous cache schema
// reads as a miss and is overwritten in place with the current one.
func TestStaleCacheVersionIgnored(t *testing.T) {
	dir := t.TempDir()
	d := &Driver{Analyzers: All, CacheDir: dir}
	if _, err := d.Run(driverPatterns); err != nil {
		t.Fatal(err)
	}
	entry := (&fileCache{dir: dir}).entryFile("pkg", "repro/internal/units")
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.CacheVersion = 0
	stale, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := d.Run(driverPatterns)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PkgHits != res.Stats.Packages-1 {
		t.Fatalf("stale entry was not treated as a miss: %+v", res.Stats)
	}
	if !res.Stats.ModuleHit || res.Stats.Loaded != 1 {
		t.Fatalf("only the stale package should reload: %+v", res.Stats)
	}
	data, err = os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.CacheVersion != cacheVersion {
		t.Fatalf("stale entry not rewritten: version %d", e.CacheVersion)
	}
}
