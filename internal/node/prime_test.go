package node

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/units"
)

// logBackend is a shared-memory backend that records every write it
// absorbs.
type logBackend struct{ writes []access.Addr }

func (b *logBackend) Fill(_ int, _ access.Addr, _ units.Bytes, now units.Time) units.Time {
	return now + 50
}

func (b *logBackend) Intervenes(int, access.Addr) bool { return false }

func (b *logBackend) OthersDirty(int) bool { return false }

func (b *logBackend) Write(_ int, a access.Addr, nb units.Bytes, now units.Time) units.Time {
	b.writes = append(b.writes, a, access.Addr(nb))
	return now + 100
}

// combiningConfig is a three-level write-combining node: a store run
// that covers whole L2 lines skips the fetch, which would otherwise
// install the line in L3.
func combiningConfig() Config {
	c := testConfig()
	c.Levels = []LevelSpec{
		c.Levels[0],
		{Cache: cache.Config{Name: "L2", Size: 32 * units.KB, LineSize: 32, Assoc: 2,
			Write: cache.WriteBack, Alloc: cache.ReadWriteAllocate}, FillOcc: 40, WordOcc: 20, WriteOcc: 20},
		{Cache: cache.Config{Name: "L3", Size: 256 * units.KB, LineSize: 64, Assoc: 1,
			Write: cache.WriteBack, Alloc: cache.ReadWriteAllocate}, FillOcc: 80, WordOcc: 60, WriteOcc: 30},
	}
	c.WB.WriteCombine = true
	return c
}

// TestPrimeStoreRunOffMachine covers the store-prime paths that none
// of the three modelled machines reaches: write-buffer drains into a
// coherence backend (an 8400 store always retires in its write-back
// L2) and a write-combining node with a level below the allocating
// one (the T3E's L2 is its last level). The tag-only prime must send
// the backend the same writes as the timed StoreRun, leave the same
// lines resident and dirty, and leave the measured pass that follows
// bit-identical.
func TestPrimeStoreRunOffMachine(t *testing.T) {
	type run struct {
		start       access.Addr
		step, count int64
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
		runs []run
	}{
		{"backend", testConfig, []run{{0x1000, 8, 600}, {0x2008, 24, 300}, {0x3000, 0, 9}}},
		{"combining", combiningConfig, []run{{0x1000, 8, 4096}, {0x80000, 8, 100}, {0x40000, 64, 500}}},
	} {
		build := func() (*Node, *logBackend) {
			n := New(0, tc.cfg())
			b := &logBackend{}
			if tc.name == "backend" {
				n.SetBackend(b)
			}
			return n, b
		}
		tagOnly, tb := build()
		timed, db := build()
		for _, r := range tc.runs {
			tagOnly.PrimeStoreRun(r.start, r.step, r.count)
			timed.StoreRun(r.start, r.step, r.count)
		}
		tagOnly.FlushWrites()
		timed.FlushWrites()
		if !reflect.DeepEqual(tb.writes, db.writes) {
			t.Fatalf("%s: backend writes after tag-only prime %v, after timed %v", tc.name, tb.writes, db.writes)
		}
		for a := access.Addr(0); a < 1<<20; a += 32 {
			if tagOnly.Holds(a) != timed.Holds(a) || tagOnly.HoldsDirty(a) != timed.HoldsDirty(a) {
				t.Fatalf("%s: line %#x held %v dirty %v after tag-only prime, held %v dirty %v after timed",
					tc.name, a, tagOnly.Holds(a), tagOnly.HoldsDirty(a), timed.Holds(a), timed.HoldsDirty(a))
			}
		}
		for _, n := range []*Node{tagOnly, timed} {
			n.ResetTiming()
			for _, r := range tc.runs {
				n.StoreRun(r.start, r.step, r.count)
				n.LoadRun(r.start, r.step, r.count)
			}
			n.FlushWrites()
		}
		if tagOnly.Now() != timed.Now() || !reflect.DeepEqual(tagOnly.CacheStats(), timed.CacheStats()) {
			t.Fatalf("%s: measured pass %v %v after tag-only prime, %v %v after timed", tc.name,
				tagOnly.Now(), tagOnly.CacheStats(), timed.Now(), timed.CacheStats())
		}
	}
}
