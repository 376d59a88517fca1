package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/surface"
)

// These tests pin the store's corruption accounting: every degraded
// path — kind mismatch, unreadable bytes, decode failure, stale
// calibration, grid drift — must tally exactly the counters the
// paper-facing reports read (misses, quarantines, stale drops). A
// silently dropped Inc (the dropcounter mutation class) makes the
// store look healthier than it is.

// plantSurface opens a cold store over dir and swaps the on-disk
// artifact for k with raw, fixing the manifest checksum so the bytes
// pass verification and reach the decode/validation paths.
func plantSurface(t *testing.T, dir string, k Key, raw []byte) *Store {
	t.Helper()
	st := openTest(t, dir)
	idx, ok := st.byKey[k]
	if !ok {
		t.Fatalf("planted key is not in the manifest")
	}
	file := filepath.Join(dir, st.man.Entries[idx].File)
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatalf("planting artifact: %v", err)
	}
	st.man.Entries[idx].Checksum = Checksum(raw)
	return st
}

// seedSurface puts one surface and returns its key, surface, and
// calibration.
func seedSurface(t *testing.T, dir string) (Key, *surface.Surface, machine.Calibration) {
	t.Helper()
	cal := machine.NewT3D(1).Calibration()
	s := testSurface(cal)
	k := testKey(cal)
	st := openTest(t, dir)
	if err := st.PutSurface(k, s); err != nil {
		t.Fatalf("PutSurface: %v", err)
	}
	return k, s, cal
}

func TestStatsUnreadableArtifactQuarantinesAndMisses(t *testing.T) {
	dir := t.TempDir()
	k, _, _ := seedSurface(t, dir)
	st := openTest(t, dir) // cold LRU: the read must go to disk
	idx := st.byKey[k]
	if err := os.Remove(filepath.Join(dir, st.man.Entries[idx].File)); err != nil {
		t.Fatalf("removing artifact: %v", err)
	}
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served a deleted artifact")
	}
	stats := st.Stats()
	if stats.Misses != 1 || stats.Quarantined != 1 || stats.DiskHits != 0 {
		t.Errorf("unreadable accounting: %+v, want one miss and one quarantine", stats)
	}
	if st.Len() != 0 {
		t.Errorf("manifest still indexes the dead entry (len %d)", st.Len())
	}
}

// TestStatsUndecodableSurfaceQuarantinesAndMisses covers garbage and
// a version-1 snapshot (the layout before the Source plane, which no
// longer decodes).
func TestStatsUndecodableSurfaceQuarantinesAndMisses(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  func(s *surface.Surface) []byte
	}{
		{"garbage", func(*surface.Surface) []byte { return []byte("not a surface snapshot") }},
		{"v1", func(s *surface.Surface) []byte {
			b, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			b[4] = 1
			return b[:len(b)-len(s.Strides)*len(s.WorkingSets)]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			k, s, _ := seedSurface(t, dir)
			st := plantSurface(t, dir, k, tc.raw(s))
			if _, ok := st.GetSurface(k); ok {
				t.Fatal("GetSurface served undecodable bytes")
			}
			stats := st.Stats()
			if stats.Misses != 1 || stats.Quarantined != 1 || stats.StaleDrops != 0 {
				t.Errorf("undecodable accounting: %+v, want one miss and one quarantine", stats)
			}
		})
	}
}

func TestStatsStaleSurfaceCountsStaleDropAndMiss(t *testing.T) {
	dir := t.TempDir()
	k, s, _ := seedSurface(t, dir)
	stale := cloneSurface(s)
	stale.CalHash = s.CalHash + 1 // a different calibration's artifact
	raw, err := stale.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	st := plantSurface(t, dir, k, raw)
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served a stale-calibration artifact")
	}
	stats := st.Stats()
	if stats.StaleDrops != 1 || stats.Misses != 1 || stats.Quarantined != 1 {
		t.Errorf("stale accounting: %+v, want one stale drop, miss, and quarantine", stats)
	}
}

func TestStatsGridDriftQuarantinesAndMisses(t *testing.T) {
	dir := t.TempDir()
	k, s, cal := seedSurface(t, dir)
	drifted := surface.New(cal.Machine, s.Title, []int{1, 2, 3}, s.WorkingSets)
	drifted.CalHash = s.CalHash
	raw, err := drifted.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	st := plantSurface(t, dir, k, raw)
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served an artifact with a drifted grid")
	}
	stats := st.Stats()
	if stats.Misses != 1 || stats.Quarantined != 1 || stats.StaleDrops != 0 {
		t.Errorf("grid drift accounting: %+v, want one miss and one quarantine", stats)
	}
}
