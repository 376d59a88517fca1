package node

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/units"
)

// TestColdResetIdentical is the regression test for the statereset
// findings on Node (per-level lastLine/lastReady, DRAM readiness,
// engine cursors, cache and bank stats): after InvalidateCaches plus
// ResetTiming, the same mixed load/store pattern must finish at the
// same simulated time with identical counters. Any warm remnant —
// a fill cursor, a page-mode row, a half-open write-combine run —
// shows up as a timing difference between the two runs.
func TestColdResetIdentical(t *testing.T) {
	run := func(n *Node) (units.Time, Stats) {
		// DRAM-resident working set with a stride that mixes line
		// hits, stream detection, and bank conflicts; every third
		// access is a store so the write buffer and combine-run
		// state participate too.
		p := access.Pattern{WorkingSet: 64 * units.KB, Stride: 3}
		i := 0
		p.Walk(func(a access.Addr, seg bool) {
			if seg {
				n.SegmentStart()
			}
			if i%3 == 0 {
				n.StoreRun(a, 0, 1)
			} else {
				n.LoadRun(a, 0, 1)
			}
			i++
		})
		n.FlushWrites()
		return n.Now(), n.Stats()
	}

	n := New(0, testConfig())
	firstNow, firstStats := run(n)
	firstCache := n.CacheStats()
	firstDRAM := n.DRAMStats()
	n.InvalidateCaches()
	n.ResetTiming()
	secondNow, secondStats := run(n)

	if firstNow != secondNow {
		t.Errorf("cold rerun finishes at %v, first run at %v", secondNow, firstNow)
	}
	if firstStats != secondStats {
		t.Errorf("stats diverge across cold runs: first %+v, second %+v",
			firstStats, secondStats)
	}
	// ResetTiming must also restart the per-level cache and DRAM
	// counters, or back-to-back sweep points report accumulated
	// hit rates instead of per-point ones.
	if !reflect.DeepEqual(firstCache, n.CacheStats()) {
		t.Errorf("cache stats diverge across cold runs: first %+v, second %+v",
			firstCache, n.CacheStats())
	}
	if firstDRAM != n.DRAMStats() {
		t.Errorf("DRAM stats diverge across cold runs: first %+v, second %+v",
			firstDRAM, n.DRAMStats())
	}
}
