package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/units"
)

var (
	testStrides = []int{1, 4, 16}
	testWSS     = []units.Bytes{4 * units.KB, 64 * units.KB, 1 * units.MB}
)

// testSurface builds a synthetic all-simulated surface under cal.
func testSurface(cal machine.Calibration) *surface.Surface {
	s := surface.New(cal.Machine, "test load bandwidth", testStrides, testWSS)
	s.CalHash = cal.Hash()
	for wi := range testWSS {
		for si := range testStrides {
			s.Set(wi, si, units.BytesPerSec(1e8*float64(wi+1)/float64(si+1)))
		}
	}
	return s
}

func testKey(cal machine.Calibration) Key {
	return surfaceKey(cal, PatternLoad, machine.Fetch, 0, 0, testStrides, testWSS)
}

// surfaceKey keys a load or transfer surface as the sweep layer does
// (bench.LoadSurfaceKey, bench.TransferSurfaceKey).
func surfaceKey(cal machine.Calibration, p Pattern, mode machine.Mode, idx, dst int, strides []int, wss []units.Bytes) Key {
	if p == PatternTransfer {
		return NewKey(cal, p.With(mode.String(), idx, dst), strides, wss)
	}
	return NewKey(cal, p.With("", idx), strides, wss)
}

// curveSurface builds a fixed-working-set curve as a one-row surface.
func curveSurface(cal machine.Calibration, strides []int, bw ...units.BytesPerSec) *surface.Surface {
	s := surface.New(cal.Machine, "test copy", strides, []units.Bytes{8 * units.MB})
	s.CalHash = cal.Hash()
	copy(s.BW[0], bw)
	return s
}

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func TestSurfaceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cal := machine.NewT3D(1).Calibration()
	s := testSurface(cal)
	k := testKey(cal)
	want, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	st := openTest(t, dir)
	if err := st.PutSurface(k, s); err != nil {
		t.Fatalf("PutSurface: %v", err)
	}
	// Same handle: an in-memory hit.
	got, ok := st.GetSurface(k)
	if !ok {
		t.Fatal("GetSurface missed after Put")
	}
	gb, _ := got.MarshalBinary()
	if !bytes.Equal(gb, want) {
		t.Error("in-memory round trip is not byte-identical")
	}
	if stats := st.Stats(); stats.MemHits != 1 {
		t.Errorf("MemHits = %d, want 1", stats.MemHits)
	}

	// Fresh handle on the same directory: a disk hit.
	st2 := openTest(t, dir)
	got2, ok := st2.GetSurface(k)
	if !ok {
		t.Fatal("GetSurface missed after reopen")
	}
	gb2, _ := got2.MarshalBinary()
	if !bytes.Equal(gb2, want) {
		t.Error("disk round trip is not byte-identical")
	}
	if stats := st2.Stats(); stats.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", stats.DiskHits)
	}
}

func TestGetReturnsCopies(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, t.TempDir())
	k := testKey(cal)
	if err := st.PutSurface(k, testSurface(cal)); err != nil {
		t.Fatal(err)
	}
	a, _ := st.GetSurface(k)
	a.Set(0, 0, 12345) // mutate the caller's copy
	b, _ := st.GetSurface(k)
	if b.BW[0][0] == 12345 {
		t.Error("mutating a Get result leaked into the store's cached copy")
	}
}

func TestCurveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cal := machine.NewT3E(1).Calibration()
	c := curveSurface(cal, []int{1, 2, 4}, 3e8, 2e8, 1e8)
	k := NewKey(cal, PatternCopy.With("sl", 0), c.Strides, c.WorkingSets)
	want, _ := c.MarshalBinary()

	st := openTest(t, dir)
	if err := st.PutSurface(k, c); err != nil {
		t.Fatalf("PutSurface: %v", err)
	}
	st2 := openTest(t, dir)
	got, ok := st2.GetSurface(k)
	if !ok {
		t.Fatal("GetSurface missed the curve after reopen")
	}
	gb, _ := got.MarshalBinary()
	if !bytes.Equal(gb, want) {
		t.Error("curve round trip is not byte-identical")
	}
	// The same curve under another variant is another artifact.
	if _, ok := st2.GetSurface(NewKey(cal, PatternCopy.With("ss", 0), c.Strides, c.WorkingSets)); ok {
		t.Error("GetSurface served the curve under another variant's key")
	}
}

func TestPutRejectsCalHashMismatch(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, t.TempDir())
	s := testSurface(cal)
	s.CalHash++ // corrupt the artifact's provenance
	if err := st.PutSurface(testKey(cal), s); err == nil {
		t.Error("PutSurface accepted a surface whose CalHash does not match the key")
	}
}

// TestCalHashMissTotal: a calibration change — any constant, here one
// CPU slot — invalidates every entry keyed under the old calibration.
func TestCalHashMissTotal(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, t.TempDir())
	if err := st.PutSurface(testKey(cal), testSurface(cal)); err != nil {
		t.Fatal(err)
	}

	recal := cal
	recal.CPU.LoadSlot += 1
	if recal.Hash() == cal.Hash() {
		t.Fatal("calibration change did not change the hash")
	}
	if _, ok := st.GetSurface(testKey(recal)); ok {
		t.Error("GetSurface served an artifact from a different calibration")
	}
	// The off-grid path must not serve stale cells either: with no
	// matching surface it falls back to the analytic model.
	r, err := st.Lookup(recal, PatternLoad, machine.Fetch, testWSS[0], testStrides[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Confidence != Analytic {
		t.Errorf("Lookup confidence after recalibration = %v, want Analytic", r.Confidence)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	l := newLRU(2)
	ka := Key{Machine: "m", Pattern: "a"}
	kb := Key{Machine: "m", Pattern: "b"}
	kc := Key{Machine: "m", Pattern: "c"}
	v := &surface.Surface{}
	l.put(ka, v)
	l.put(kb, v)
	// Touch a so b becomes the eviction victim.
	if _, ok := l.get(ka); !ok {
		t.Fatal("get(a) missed")
	}
	if got := l.keys(); got[0] != ka || got[1] != kb {
		t.Fatalf("recency order = %v, want [a b]", got)
	}
	if evicted := l.put(kc, v); evicted != 1 {
		t.Fatalf("put(c) evicted %d, want 1", evicted)
	}
	if _, ok := l.get(kb); ok {
		t.Error("b survived eviction; LRU order is wrong")
	}
	if _, ok := l.get(ka); !ok {
		t.Error("a was evicted despite being most recently used")
	}
	if l.len() != 2 {
		t.Errorf("len = %d, want 2", l.len())
	}
}

func TestStoreEvictionCounted(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	st, err := Open(t.TempDir(), Options{CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := curveSurface(cal, []int{1}, 1e8)
	if err := st.PutSurface(NewKey(cal, PatternCopy.With("a", 0), c.Strides, c.WorkingSets), c); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSurface(NewKey(cal, PatternCopy.With("b", 0), c.Strides, c.WorkingSets), c); err != nil {
		t.Fatal(err)
	}
	if stats := st.Stats(); stats.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", stats.Evictions)
	}
	// Both entries still serve from disk — eviction only drops the
	// decoded copy.
	if _, ok := st.GetSurface(NewKey(cal, PatternCopy.With("a", 0), c.Strides, c.WorkingSets)); !ok {
		t.Error("evicted entry no longer serves from disk")
	}
}

// entryFile returns the artifact file the store holds for k.
func entryFile(t *testing.T, st *Store, k Key) string {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	idx, ok := st.byKey[k]
	if !ok {
		t.Fatal("no manifest entry for key")
	}
	return st.man.Entries[idx].File
}

// TestCorruptionQuarantined: a truncated, bit-flipped, or
// wrong-version artifact is never served and never crashes — it is
// renamed aside and the lookup misses so the caller re-simulates.
func TestCorruptionQuarantined(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	corruptions := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bitflip", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)/2] ^= 0x40 // flip a bit mid-payload (bandwidth data)
			return out
		}},
		{"wrong-version", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[4] = 0xEE // version field follows the 4-byte magic
			out[5] = 0xEE
			return out
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openTest(t, dir)
			k := testKey(cal)
			if err := st.PutSurface(k, testSurface(cal)); err != nil {
				t.Fatal(err)
			}
			file := entryFile(t, st, k)
			path := filepath.Join(dir, file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			// Reopen so the LRU cannot mask the corrupt file.
			st2 := openTest(t, dir)
			if _, ok := st2.GetSurface(k); ok {
				t.Fatal("corrupt entry was served")
			}
			stats := st2.Stats()
			if stats.Quarantined != 1 {
				t.Errorf("Quarantined = %d, want 1", stats.Quarantined)
			}
			if stats.Misses != 1 {
				t.Errorf("Misses = %d, want 1", stats.Misses)
			}
			if _, err := os.Stat(path + ".quarantined"); err != nil {
				t.Errorf("corrupt file was not renamed aside: %v", err)
			}
			// The slot is reusable: a fresh Put serves again.
			if err := st2.PutSurface(k, testSurface(cal)); err != nil {
				t.Fatalf("re-Put after quarantine: %v", err)
			}
			if _, ok := st2.GetSurface(k); !ok {
				t.Error("re-Put entry does not serve")
			}
		})
	}
}

// TestManifestCorruptionOpensEmpty: a damaged manifest quarantines
// aside and the store opens empty rather than failing or serving
// garbage.
func TestManifestCorruptionOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, dir)
	if err := st.PutSurface(testKey(cal), testSurface(cal)); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	var logged strings.Builder
	st2, err := Open(dir, Options{Logf: func(f string, a ...any) {
		logged.WriteString(f)
	}})
	if err != nil {
		t.Fatalf("Open after manifest corruption: %v", err)
	}
	if st2.Len() != 0 {
		t.Errorf("store opened with %d entries from a corrupt manifest", st2.Len())
	}
	if _, ok := st2.GetSurface(testKey(cal)); ok {
		t.Error("entry served despite the index being lost")
	}
	if !strings.Contains(logged.String(), "quarantin") {
		t.Errorf("quarantine was not logged: %q", logged.String())
	}
	if _, err := os.Stat(manPath + ".quarantined"); err != nil {
		t.Errorf("corrupt manifest was not renamed aside: %v", err)
	}
}
