package node

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/units"
)

// snoopBackend is a shared-memory backend that counts the snoop
// queries a node makes. dirty is its answer to OthersDirty; Intervenes
// always answers no, so a priming run stays tag-only.
type snoopBackend struct {
	dirty                          bool
	othersDirty, intervenes, fills int
}

func (b *snoopBackend) Fill(_ int, _ access.Addr, _ units.Bytes, now units.Time) units.Time {
	b.fills++
	return now + 50
}

func (b *snoopBackend) Intervenes(int, access.Addr) bool {
	b.intervenes++
	return false
}

func (b *snoopBackend) OthersDirty(int) bool {
	b.othersDirty++
	return b.dirty
}

func (b *snoopBackend) Write(_ int, _ access.Addr, _ units.Bytes, now units.Time) units.Time {
	return now + 100
}

// TestPrimeRunSnoopsOnce pins the per-run snoop check. Each load or
// store priming run asks OthersDirty exactly once. With no dirty peer
// it then asks Intervenes never; with one, it asks Intervenes for
// exactly the fills that reach memory, which a twin node's timed run
// counts as backend Fills.
func TestPrimeRunSnoopsOnce(t *testing.T) {
	type run struct {
		start       access.Addr
		step, count int64
	}
	// Unit-stride, line-stride and repeated-word runs, the second
	// pass over memory the first left resident.
	runs := []run{{0x1000, 8, 4096}, {0x40000, 128, 1000}, {0x1000, 8, 4096}, {0x90008, 0, 50}}
	for _, store := range []bool{false, true} {
		for _, dirty := range []bool{false, true} {
			t.Run(fmt.Sprintf("store=%v/dirty=%v", store, dirty), func(t *testing.T) {
				tagOnly, timed := New(0, allocConfig()), New(0, allocConfig())
				tb, db := &snoopBackend{dirty: dirty}, &snoopBackend{dirty: dirty}
				tagOnly.SetBackend(tb)
				timed.SetBackend(db)
				for i, r := range runs {
					if store {
						tagOnly.PrimeStoreRun(r.start, r.step, r.count)
						timed.StoreRun(r.start, r.step, r.count)
					} else {
						tagOnly.PrimeRun(r.start, r.step, r.count)
						timed.LoadRun(r.start, r.step, r.count)
					}
					if tb.othersDirty != i+1 {
						t.Fatalf("run %d: %d OthersDirty calls after %d runs", i, tb.othersDirty, i+1)
					}
					want := 0
					if dirty {
						want = db.fills
					}
					if tb.intervenes != want || tb.fills != 0 {
						t.Fatalf("run %d: %d Intervenes and %d Fill calls, want %d and 0 (timed fills %d)",
							i, tb.intervenes, tb.fills, want, db.fills)
					}
				}
				if db.fills == 0 {
					t.Fatal("the timed runs never filled from memory")
				}
			})
		}
	}
}
