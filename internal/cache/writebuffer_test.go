package cache

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/units"
)

// counted attaches live drain counters to a write buffer, as the node
// model does through its probe scope.
func counted(w *WriteBuffer) *WriteBuffer {
	s := probe.New().Scope("wb")
	w.Drained = s.Counter("drained")
	w.DrainedBytes = s.ByteCounter("drained_bytes")
	return w
}

func target(res *sim.Resource, perByte units.Time) DrainTarget {
	return func(_ access.Addr, n units.Bytes, now units.Time) units.Time {
		occ := units.Time(n) * perByte
		return res.Acquire(now, occ) + occ
	}
}

func TestWriteBufferCoalescesContiguous(t *testing.T) {
	// Four contiguous 8-byte stores coalesce into one 32-byte entry
	// (T3D behaviour, §3.2).
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 6, EntryBytes: 32})
	tg := target(&res, 1)
	for i := 0; i < 4; i++ {
		if stall := w.Push(access.Addr(i*8), 0, tg); stall != 0 {
			t.Fatalf("store %d stalled %v", i, stall)
		}
	}
	if w.Drained.Get() != 1 || w.DrainedBytes.Get() != 32 {
		t.Fatalf("drained %d entries / %d bytes, want 1/32", w.Drained.Get(), w.DrainedBytes.Get())
	}
}

func TestWriteBufferStridedEntriesPerWord(t *testing.T) {
	// Strided stores (64B apart) cannot coalesce: one entry per word.
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 6, EntryBytes: 32})
	tg := target(&res, 1)
	for i := 0; i < 8; i++ {
		w.Push(access.Addr(i*64), 0, tg)
	}
	w.Flush(0, tg)
	if w.Drained.Get() != 8 {
		t.Fatalf("drained %d entries, want 8 (no coalescing)", w.Drained.Get())
	}
	if w.DrainedBytes.Get() != 64 {
		t.Fatalf("drained %d bytes, want 64 (8 words)", w.DrainedBytes.Get())
	}
}

func TestWriteBufferBackpressure(t *testing.T) {
	// With 2 slots and a slow drain, a burst of strided stores must
	// eventually stall the processor.
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 2, EntryBytes: 32})
	tg := target(&res, 100) // 800ns per 8-byte entry
	var totalStall units.Time
	for i := 0; i < 16; i++ {
		totalStall += w.Push(access.Addr(i*64), 0, tg)
	}
	if totalStall == 0 {
		t.Fatalf("saturated write buffer should stall the producer")
	}
}

func TestWriteBufferContiguousBeatsStrided(t *testing.T) {
	// Coalescing means a contiguous store stream completes its drains
	// in fewer entries (and thus less drain occupancy) than a strided
	// stream of the same word count — the mechanism behind the T3D's
	// strided-store advantage evaporating relative to its contiguous
	// stores.
	run := func(strideBytes int) units.Time {
		var res sim.Resource
		w := counted(&WriteBuffer{Entries: 4, EntryBytes: 32})
		// Per-entry fixed cost (a DRAM access / network packet) plus
		// a per-byte transfer cost: this is what coalescing saves.
		tg := func(_ access.Addr, n units.Bytes, now units.Time) units.Time {
			occ := 50 + units.Time(n)*2
			return res.Acquire(now, occ) + occ
		}
		now := units.Time(0)
		for i := 0; i < 64; i++ {
			now += w.Push(access.Addr(i*strideBytes), now, tg)
		}
		return w.Flush(now, tg)
	}
	if cont, strided := run(8), run(64); cont >= strided {
		t.Fatalf("contiguous drain (%v) should finish before strided (%v)", cont, strided)
	}
}

func TestWriteBufferFlushWaitsForDrains(t *testing.T) {
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 4, EntryBytes: 32})
	tg := target(&res, 10) // 80ns per word entry
	w.Push(0, 0, tg)
	done := w.Flush(0, tg)
	if done < 80 {
		t.Fatalf("flush completed at %v, want >= 80ns drain time", done)
	}
	// After flush, no in-flight state remains.
	if got := w.Flush(done, tg); got != done {
		t.Fatalf("idempotent flush moved time: %v -> %v", done, got)
	}
}

func TestWriteBufferReset(t *testing.T) {
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 2, EntryBytes: 32})
	tg := target(&res, 10)
	w.Push(0, 0, tg)
	w.Reset()
	if w.Drained.Get() != 0 || w.DrainedBytes.Get() != 0 {
		t.Fatalf("reset should clear counters")
	}
	if done := w.Flush(5, tg); done != 5 {
		t.Fatalf("reset buffer should flush instantly: %v", done)
	}
}

// drainLog is a drain target that takes a fixed 100 ns per entry and
// records each entry's address, size and start time.
type drainLog struct{ entries []string }

func (d *drainLog) target(a access.Addr, n units.Bytes, now units.Time) units.Time {
	d.entries = append(d.entries, fmt.Sprintf("%#x+%d@%v", int64(a), int64(n), now))
	return now + 100
}

func TestWriteBufferStallExact(t *testing.T) {
	// One slot: closing the second entry waits for the first drain,
	// and the flush waits for the third; each stalled drain starts
	// when its stall ends.
	var d drainLog
	w := &WriteBuffer{Entries: 1, EntryBytes: 32}
	var stalls []units.Time
	for i, now := range []units.Time{0, 10, 20, 250} {
		stalls = append(stalls, w.Push(access.Addr(i*64), now, d.target))
	}
	done := w.Flush(260, d.target)
	want := []units.Time{0, 0, 90, 0}
	for i := range want {
		if stalls[i] != want[i] {
			t.Fatalf("stalls %v, want %v", stalls, want)
		}
	}
	if got, want := fmt.Sprint(d.entries), "[0x0+8@10.00ns 0x40+8@110.00ns 0x80+8@250.00ns 0xc0+8@350.00ns]"; got != want {
		t.Fatalf("drains %s, want %s", got, want)
	}
	if done != 450 {
		t.Fatalf("flush done at %v, want 450ns", done)
	}
}

func TestWriteBufferResetMatchesFresh(t *testing.T) {
	// After Reset a used buffer holds what a new one holds and answers
	// the same stream with the same stalls, drains and counts.
	run := func(w *WriteBuffer) string {
		var d drainLog
		var stalls []units.Time
		for i := 0; i < 6; i++ {
			stalls = append(stalls, w.Push(access.Addr(i*8+i/3*64), units.Time(i), d.target))
		}
		done := w.Flush(10, d.target)
		return fmt.Sprint(stalls, d.entries, done, w.Drained.Get(), w.DrainedBytes.Get())
	}
	used := counted(&WriteBuffer{Entries: 2, EntryBytes: 32})
	run(used)
	used.Push(0x1000, 500, (&drainLog{}).target)
	used.Push(0x2000, 510, (&drainLog{}).target)
	used.Reset()
	if used.openValid || used.openBase != 0 || used.openEnd != 0 || len(used.inflight) != 0 {
		t.Fatalf("reset left open %v [%#x,%#x) and %d in flight",
			used.openValid, int64(used.openBase), int64(used.openEnd), len(used.inflight))
	}
	if got, want := run(used), run(counted(&WriteBuffer{Entries: 2, EntryBytes: 32})); got != want {
		t.Fatalf("after reset %s, fresh %s", got, want)
	}
}
