package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/units"
)

// These tests pin the store's concurrency contract ahead of memserve:
// one shared Store hammered from N goroutines must produce exactly
// the probe counters and manifest bytes of the serial run. The probe
// counters are part of the paper's attributable cost accounting, so
// "roughly right under concurrency" is not good enough — the op
// multiset is fixed, therefore the totals must be too. Run under
// -race (check.sh does) this doubles as the data-race proof for the
// locksafe analyzer's runtime counterpart.

// concurrentWorkers is the goroutine count for the hammer phase —
// comfortably more than the host's cores so scheduling interleaves.
const concurrentWorkers = 8

// hammerKeys builds one distinct surface+key pair per worker; the
// grids differ by stride so every key has its own GridSig.
func hammerKeys(t *testing.T, cal machine.Calibration) ([]Key, []*surface.Surface) {
	t.Helper()
	keys := make([]Key, concurrentWorkers)
	surfs := make([]*surface.Surface, concurrentWorkers)
	for i := 0; i < concurrentWorkers; i++ {
		strides := []int{1, 2 + i}
		s := surface.New(cal.Machine, "concurrent load bandwidth", strides, testWSS)
		s.CalHash = cal.Hash()
		for wi := range testWSS {
			for si := range strides {
				s.Set(wi, si, units.BytesPerSec(1e8*float64(wi+1)/float64(si+i+1)))
			}
		}
		keys[i] = surfaceKey(cal, PatternLoad, machine.Fetch, 0, 0, strides, testWSS)
		surfs[i] = s
	}
	return keys, surfs
}

// missKey is a key no workload ever stores: every Get is a miss.
func missKey(cal machine.Calibration) Key {
	return surfaceKey(cal, PatternLoad, machine.Fetch, 7, 0, []int{3}, testWSS)
}

// runHammer seeds the store serially, then runs the identical op
// multiset — Gets, re-Puts, and misses per key — either serially
// (workers=1) or from one goroutine per key, and returns the final
// counters and manifest bytes. The per-key op sequence is fixed and
// keys are disjoint across workers, so the totals must not depend on
// interleaving.
func runHammer(t *testing.T, dir string, parallel bool) (Stats, []byte) {
	t.Helper()
	cal := machine.NewT3D(1).Calibration()
	keys, surfs := hammerKeys(t, cal)
	st, err := Open(dir, Options{CacheEntries: 1024, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Seed phase, serial in both modes: establishes manifest order.
	for i := range keys {
		if err := st.PutSurface(keys[i], surfs[i]); err != nil {
			t.Fatalf("seed PutSurface: %v", err)
		}
	}
	miss := missKey(cal)
	work := func(i int) {
		for round := 0; round < 3; round++ {
			if _, ok := st.GetSurface(keys[i]); !ok {
				t.Errorf("worker %d round %d: stored surface missing", i, round)
				return
			}
			if _, ok := st.GetSurface(miss); ok {
				t.Errorf("worker %d round %d: phantom surface for absent key", i, round)
				return
			}
			// Re-Put of identical content: an in-place manifest entry
			// overwrite, so ordering stays the seed ordering.
			if err := st.PutSurface(keys[i], surfs[i]); err != nil {
				t.Errorf("worker %d round %d: re-Put: %v", i, round, err)
				return
			}
			if _, ok := st.GetSurface(keys[i]); !ok {
				t.Errorf("worker %d round %d: surface lost after re-Put", i, round)
				return
			}
		}
	}
	if parallel {
		var wg sync.WaitGroup
		for i := range keys {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				work(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range keys {
			work(i)
		}
	}
	man, err := os.ReadFile(filepath.Join(dir, "manifest.bin"))
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	return st.Stats(), man
}

func TestConcurrentHammerMatchesSerialRun(t *testing.T) {
	serialStats, serialMan := runHammer(t, t.TempDir(), false)
	concStats, concMan := runHammer(t, t.TempDir(), true)

	if concStats != serialStats {
		t.Errorf("concurrent counters diverge from serial run:\nserial     %+v\nconcurrent %+v",
			serialStats, concStats)
	}
	if !bytes.Equal(serialMan, concMan) {
		t.Errorf("concurrent manifest bytes diverge from serial run: %d vs %d bytes",
			len(serialMan), len(concMan))
	}

	// Sanity-pin the expected op accounting so a silent counter drop
	// (the dropcounter mutation) cannot slip through: per worker the
	// hammer does 3 rounds of (hit, miss, write, hit) plus one seed
	// write.
	wantWrites := int64(concurrentWorkers * (1 + 3))
	wantMemHits := int64(concurrentWorkers * 3 * 2)
	wantMisses := int64(concurrentWorkers * 3)
	if serialStats.Writes != wantWrites || serialStats.MemHits != wantMemHits ||
		serialStats.Misses != wantMisses {
		t.Errorf("serial accounting off: got %+v, want writes=%d memHits=%d misses=%d",
			serialStats, wantWrites, wantMemHits, wantMisses)
	}
	if serialStats.Evictions != 0 || serialStats.Quarantined != 0 || serialStats.StaleDrops != 0 {
		t.Errorf("unexpected evictions/quarantines in hammer run: %+v", serialStats)
	}
}

// TestConcurrentReadersShareOneEntry pins the read side alone: many
// goroutines hitting the same key must each get an independent clone
// and tally exactly one memory hit each.
func TestConcurrentReadersShareOneEntry(t *testing.T) {
	dir := t.TempDir()
	cal := machine.NewT3D(1).Calibration()
	s := testSurface(cal)
	k := testKey(cal)
	st := openTest(t, dir)
	if err := st.PutSurface(k, s); err != nil {
		t.Fatalf("PutSurface: %v", err)
	}
	const readers = 16
	var wg sync.WaitGroup
	got := make([]*surface.Surface, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			surf, ok := st.GetSurface(k)
			if !ok {
				t.Errorf("reader %d: surface missing", i)
				return
			}
			got[i] = surf
		}(i)
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if got[i] == got[0] {
			t.Fatalf("readers %d and 0 share one *Surface; Get must clone", i)
		}
	}
	stats := st.Stats()
	if stats.MemHits != readers {
		t.Errorf("MemHits = %d, want %d (one per reader)", stats.MemHits, readers)
	}
}
