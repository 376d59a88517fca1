package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/units"
)

// scanCloseOpen is closeOpen as it was written before the earliest
// completion was kept in a local: the scan re-reads the slot it holds
// on every comparison. It is the oracle the single scan must match.
func scanCloseOpen(w *WriteBuffer, now units.Time, t DrainTarget) units.Time {
	n := units.Bytes(w.openEnd - w.openBase)
	base := w.openBase
	w.openValid = false
	w.Drained.Inc()
	w.DrainedBytes.Add(n)

	var stall units.Time
	if len(w.inflight) >= w.Entries && w.Entries > 0 {
		earliest := 0
		for i, c := range w.inflight {
			if c < w.inflight[earliest] {
				earliest = i
			}
		}
		if w.inflight[earliest] > now {
			stall = w.inflight[earliest] - now
		}
		w.inflight[earliest] = w.inflight[len(w.inflight)-1]
		w.inflight = w.inflight[:len(w.inflight)-1]
	}
	w.inflight = append(w.inflight, t(base, n, now+stall))
	return stall
}

// TestCloseOpenMatchesScan closes entries on two write buffers, one
// through closeOpen and one through the oracle scan, with 0 (no
// bound), 1, 4 and 8 slots. The drain target's completion times come
// from a coarse set, so slots often tie and arrive out of order, and
// the close times fall before, between and after them. Every stall,
// every in-flight slot in order, both counters and every drain
// request must match after every close.
func TestCloseOpenMatchesScan(t *testing.T) {
	for _, entries := range []int{0, 1, 4, 8} {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			got := counted(&WriteBuffer{Entries: entries, EntryBytes: 32})
			want := counted(&WriteBuffer{Entries: entries, EntryBytes: 32})
			var gotLog, wantLog drainLog
			drain := func(log *drainLog) DrainTarget {
				return func(a access.Addr, n units.Bytes, now units.Time) units.Time {
					log.target(a, n, now)
					return now + units.Time(int64(a)>>3%5)*40
				}
			}
			rng := rand.New(rand.NewSource(int64(entries) + 1))
			var now units.Time
			for op := 0; op < 2000; op++ {
				if entries == 0 && op%16 == 0 {
					// An unbounded buffer only grows; drain it now
					// and then.
					got.inflight, want.inflight = got.inflight[:0], want.inflight[:0]
				}
				now += units.Time(rng.Intn(4)) * 20
				base := access.Addr(rng.Intn(256)) * 8
				size := access.Addr(1+rng.Intn(4)) * 8
				for _, w := range []*WriteBuffer{got, want} {
					w.openValid, w.openBase, w.openEnd = true, base, base+size
				}
				g := got.closeOpen(now, drain(&gotLog))
				w := scanCloseOpen(want, now, drain(&wantLog))
				if g != w {
					t.Fatalf("op %d: stall %v, scan %v", op, g, w)
				}
				if !slices.Equal(got.inflight, want.inflight) || got.openValid {
					t.Fatalf("op %d: in flight %v (open %v), scan %v", op, got.inflight, got.openValid, want.inflight)
				}
				if got.Drained.Get() != want.Drained.Get() || got.DrainedBytes.Get() != want.DrainedBytes.Get() {
					t.Fatalf("op %d: drained %d (%v), scan %d (%v)", op,
						got.Drained.Get(), got.DrainedBytes.Get(), want.Drained.Get(), want.DrainedBytes.Get())
				}
			}
			if !slices.Equal(gotLog.entries, wantLog.entries) {
				t.Fatalf("drain requests differ:\n%v\nscan:\n%v", gotLog.entries, wantLog.entries)
			}
		})
	}
}
