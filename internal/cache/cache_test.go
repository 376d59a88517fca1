package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/units"
)

// t3dL1 mirrors the Cray T3D's 8KB direct-mapped write-through
// read-allocate L1 (§3.2).
func t3dL1() *Cache {
	return New(Config{
		Name: "L1", Size: 8 * units.KB, LineSize: 32, Assoc: 1,
		Write: WriteThrough, Alloc: ReadAllocate,
	})
}

// ev5L2 mirrors the 21164's 96KB 3-way unified write-back L2 (§3.1).
func ev5L2() *Cache {
	return New(Config{
		Name: "L2", Size: 96 * units.KB, LineSize: 32, Assoc: 3,
		Write: WriteBack, Alloc: ReadWriteAllocate, Shared: true,
	})
}

func TestColdMissThenHit(t *testing.T) {
	c := t3dL1()
	r := c.Access(0x1000, false)
	if r.Hit || !r.Filled {
		t.Fatalf("cold access should miss and fill: %+v", r)
	}
	r = c.Access(0x1008, false)
	if !r.Hit {
		t.Fatalf("same-line access should hit: %+v", r)
	}
	if got := c.Stats(); got.ReadHits != 1 || got.ReadMisses != 1 {
		t.Errorf("stats = %+v", got)
	}
}

func TestLineGranularity(t *testing.T) {
	c := t3dL1()
	c.Access(0, false)
	for off := access.Addr(8); off < 32; off += 8 {
		if r := c.Access(off, false); !r.Hit {
			t.Fatalf("offset %d should hit within 32B line", off)
		}
	}
	if r := c.Access(32, false); r.Hit {
		t.Fatalf("next line should miss")
	}
}

func TestWriteThroughStoresPropagate(t *testing.T) {
	c := t3dL1()
	c.Access(0x40, false) // fill line
	r := c.Access(0x40, true)
	if !r.Hit || !r.WriteThrough {
		t.Fatalf("write-through store hit should propagate: %+v", r)
	}
	if c.Dirty(0x40) {
		t.Fatalf("write-through cache must never hold dirty lines")
	}
}

func TestReadAllocateStoreMissBypasses(t *testing.T) {
	c := t3dL1()
	r := c.Access(0x80, true)
	if r.Hit || r.Filled || !r.WriteThrough {
		t.Fatalf("read-allocate store miss should bypass: %+v", r)
	}
	if c.Contains(0x80) {
		t.Fatalf("store miss must not allocate in read-allocate cache")
	}
}

func TestWriteBackDirtyVictim(t *testing.T) {
	// Direct-mapped 2-line write-back cache: conflict evictions must
	// surface dirty victims.
	c := New(Config{Name: "wb", Size: 128, LineSize: 64, Assoc: 1,
		Write: WriteBack, Alloc: ReadWriteAllocate})
	c.Access(0, true) // dirty line at 0
	if !c.Dirty(0) {
		t.Fatalf("store should dirty the line in a write-back cache")
	}
	r := c.Access(128, false) // conflicts with set 0
	if !r.HasWriteBack() || r.WriteBack() != 0 {
		t.Fatalf("evicting dirty line should report write-back: %+v", r)
	}
	if c.Contains(0) {
		t.Fatalf("victim should be gone")
	}
}

func TestCleanVictimSilent(t *testing.T) {
	c := New(Config{Name: "wb", Size: 128, LineSize: 64, Assoc: 1,
		Write: WriteBack, Alloc: ReadWriteAllocate})
	c.Access(0, false)
	r := c.Access(128, false)
	if r.HasWriteBack() {
		t.Fatalf("clean victim must not write back: %+v", r)
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := New(Config{Name: "a2", Size: 256, LineSize: 64, Assoc: 2,
		Write: WriteBack, Alloc: ReadWriteAllocate})
	// Two sets; addresses 0, 128, 256 all map to set 0.
	c.Access(0, false)
	c.Access(128, false)
	c.Access(0, false)   // 0 is MRU
	c.Access(256, false) // evicts 128 (LRU)
	if !c.Contains(0) || c.Contains(128) || !c.Contains(256) {
		t.Fatalf("LRU eviction wrong: 0=%v 128=%v 256=%v",
			c.Contains(0), c.Contains(128), c.Contains(256))
	}
}

func TestWorkingSetFitsImpliesNoSteadyStateMisses(t *testing.T) {
	// Property (paper §4.2: benchmarks "start with a primed cache"):
	// after one priming pass, a working set that fits in a
	// fully-indexed direct-mapped cache at stride 1 hits entirely.
	c := t3dL1()
	p := access.Pattern{WorkingSet: 4 * units.KB, Stride: 1}
	p.Walk(func(a access.Addr, _ bool) { c.Access(a, false) })
	before := c.Stats()
	p.Walk(func(a access.Addr, _ bool) { c.Access(a, false) })
	after := c.Stats()
	if after.ReadMisses != before.ReadMisses {
		t.Fatalf("primed in-cache pass took %d misses", after.ReadMisses-before.ReadMisses)
	}
}

func TestWorkingSetExceedsCacheThrashes(t *testing.T) {
	// A 64KB working set at stride 1 through an 8KB direct-mapped
	// cache misses once per line even when primed.
	c := t3dL1()
	p := access.Pattern{WorkingSet: 64 * units.KB, Stride: 1}
	p.Walk(func(a access.Addr, _ bool) { c.Access(a, false) })
	before := c.Stats().ReadMisses
	p.Walk(func(a access.Addr, _ bool) { c.Access(a, false) })
	missed := c.Stats().ReadMisses - before
	wantLines := int64(64 * units.KB / 32)
	if missed != wantLines {
		t.Fatalf("thrashing pass missed %d, want one per line = %d", missed, wantLines)
	}
}

func TestLargeStrideMissesEveryAccess(t *testing.T) {
	// Stride 8 words = 64B > 32B line: no spatial reuse.
	c := t3dL1()
	p := access.Pattern{WorkingSet: 64 * units.KB, Stride: 8}
	var misses int64
	p.Walk(func(a access.Addr, _ bool) {
		if r := c.Access(a, false); !r.Hit {
			misses++
		}
	})
	if misses != p.Words() {
		t.Fatalf("stride-8 pass through 8KB cache: %d misses, want %d", misses, p.Words())
	}
}

func TestInvalidate(t *testing.T) {
	c := ev5L2()
	c.Access(0x100, true)
	present, dirty := c.Invalidate(0x100)
	if !present || !dirty {
		t.Fatalf("Invalidate of dirty line: present=%v dirty=%v", present, dirty)
	}
	if c.Contains(0x100) {
		t.Fatalf("line should be gone after invalidate")
	}
	present, _ = c.Invalidate(0x100)
	if present {
		t.Fatalf("second invalidate should find nothing")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := t3dL1()
	for a := access.Addr(0); a < 4096; a += 32 {
		c.Access(a, false)
	}
	c.InvalidateAll()
	for a := access.Addr(0); a < 4096; a += 32 {
		if c.Contains(a) {
			t.Fatalf("line %d survived InvalidateAll", a)
		}
	}
}

func TestClean(t *testing.T) {
	c := ev5L2()
	c.Access(0x200, true)
	c.Clean(0x200)
	if c.Dirty(0x200) {
		t.Fatalf("Clean should clear dirty bit")
	}
	if !c.Contains(0x200) {
		t.Fatalf("Clean must not evict")
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Errorf("empty stats hit rate should be 0")
	}
	s = Stats{ReadHits: 3, ReadMisses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", s.HitRate())
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	// Property: the number of distinct resident lines never exceeds
	// Size/LineSize, for arbitrary access sequences.
	f := func(addrs []uint16) bool {
		c := New(Config{Name: "p", Size: 1 * units.KB, LineSize: 64, Assoc: 2,
			Write: WriteBack, Alloc: ReadWriteAllocate})
		for _, a := range addrs {
			c.Access(access.Addr(a)*8, a%3 == 0)
		}
		resident := 0
		for a := access.Addr(0); a < 1<<20; a += 64 {
			if c.Contains(a) {
				resident++
			}
		}
		return resident <= int(1*units.KB/64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConfigString(t *testing.T) {
	s := t3dL1().Config().String()
	if s == "" {
		t.Fatal("Config.String should describe the cache")
	}
}

// TestResultFitsInRegisters keeps Result at four fields or fewer. The
// Go compiler's SSA backend splits a struct into registers only up to
// four fields (MaxStruct in cmd/compile/internal/ssa/decompose.go).
// With a fifth field every Access result went through the stack as
// byte stores read back by 8- and 16-byte loads, which store-to-load
// forwarding cannot serve: in a 52-s CPU profile of a perfbench sweep
// (seed 3) the reload in the load prime cost 3.8 s and Access's own
// return 5.3 s, about 17% of the sweep together.
func TestResultFitsInRegisters(t *testing.T) {
	if n := reflect.TypeOf(Result{}).NumField(); n > 4 {
		t.Fatalf("cache.Result has %d fields; more than 4 keeps every Access result out of registers", n)
	}
}

func TestRepeatStoreMatchesAccesses(t *testing.T) {
	// RepeatStore(a, k) leaves the counters, the clock and the LRU
	// stamps as k more store Accesses would: on a dirty write-back
	// line, on a write-through hit and on a non-allocating miss.
	for _, tc := range []struct {
		cfg   Config
		addrs []access.Addr
	}{
		{Config{Name: "wb", Size: 1 * units.KB, LineSize: 32, Assoc: 2, Write: WriteBack, Alloc: ReadWriteAllocate},
			[]access.Addr{0x48}},
		{Config{Name: "wt", Size: 1 * units.KB, LineSize: 32, Assoc: 2, Write: WriteThrough, Alloc: ReadAllocate},
			[]access.Addr{0x48, 0x2000}},
	} {
		cfg := tc.cfg
		folded, stepped := New(cfg), New(cfg)
		for _, c := range []*Cache{folded, stepped} {
			c.Access(0x40, false)
			c.Access(0x40, true)
		}
		for _, a := range tc.addrs {
			folded.RepeatStore(a, 5)
			for i := 0; i < 5; i++ {
				stepped.Access(a, true)
			}
		}
		if folded.Stats() != stepped.Stats() || folded.tick != stepped.tick ||
			!reflect.DeepEqual(folded.lastUse, stepped.lastUse) {
			t.Fatalf("%s: RepeatStore %+v tick %d, stepped %+v tick %d",
				cfg.Name, folded.Stats(), folded.tick, stepped.Stats(), stepped.tick)
		}
	}
}
