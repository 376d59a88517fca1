package cache

import (
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/units"
)

// oracleLine and oracleCache are a deliberately naive cache model —
// one struct per line, a slice per set, divisions for the set index —
// kept as the reference the packed tag arrays must match bit for bit.
type oracleLine struct {
	tag          int64
	valid, dirty bool
	lastUse      int64
}

type oracleCache struct {
	cfg   Config
	sets  [][]oracleLine
	tick  int64
	stats Stats
}

func newOracle(cfg Config) *oracleCache {
	lines := int64(cfg.Size / cfg.LineSize)
	numSets := lines / int64(cfg.assoc())
	if numSets == 0 {
		numSets = 1
	}
	o := &oracleCache{cfg: cfg, sets: make([][]oracleLine, numSets)}
	for i := range o.sets {
		o.sets[i] = make([]oracleLine, cfg.assoc())
	}
	return o
}

func (o *oracleCache) set(a access.Addr) ([]oracleLine, int64) {
	tag := int64(a) / int64(o.cfg.LineSize) * int64(o.cfg.LineSize)
	return o.sets[tag/int64(o.cfg.LineSize)%int64(len(o.sets))], tag
}

func (o *oracleCache) access(a access.Addr, isWrite bool) Result {
	o.tick++
	set, tag := o.set(a)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = o.tick
			if isWrite {
				o.stats.WriteHits++
				if o.cfg.Write == WriteBack {
					set[i].dirty = true
					return Result{Hit: true}
				}
				return Result{Hit: true, WriteThrough: true}
			}
			o.stats.ReadHits++
			return Result{Hit: true}
		}
	}
	if isWrite {
		o.stats.WriteMisses++
		if o.cfg.Alloc == ReadAllocate {
			return Result{WriteThrough: true}
		}
	} else {
		o.stats.ReadMisses++
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	res := Result{Filled: true}
	if set[victim].valid && set[victim].dirty {
		res.WriteBack = access.Addr(set[victim].tag)
		res.HasWriteBack = true
		o.stats.WriteBacks++
	}
	set[victim] = oracleLine{tag: tag, valid: true, lastUse: o.tick}
	if isWrite {
		if o.cfg.Write == WriteBack {
			set[victim].dirty = true
		} else {
			res.WriteThrough = true
		}
	}
	return res
}

func (o *oracleCache) line(a access.Addr) *oracleLine {
	set, tag := o.set(a)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (o *oracleCache) dirtyLines() int64 {
	var n int64
	for _, set := range o.sets {
		for _, l := range set {
			if l.valid && l.dirty {
				n++
			}
		}
	}
	return n
}

// packedDirtyLines recounts the packed cache's dirty lines from its
// tag words, independently of the maintained dirtyLines field.
func packedDirtyLines(c *Cache) int64 {
	var n int64
	for _, t := range c.tags {
		if t&tagDirty != 0 {
			n++
		}
	}
	return n
}

func checkDirty(t *testing.T, op int, c *Cache, o *oracleCache) {
	t.Helper()
	want := o.dirtyLines()
	if c.dirtyLines != want || packedDirtyLines(c) != want {
		t.Fatalf("op %d: dirty lines %d (tags %d), want %d",
			op, c.dirtyLines, packedDirtyLines(c), want)
	}
}

// TestPackedMatchesOracle drives the packed cache and the naive oracle
// with the same random operation stream over direct-mapped and 3-way
// geometries, both write and allocation policies, and power-of-two
// and 3072-set indexing, comparing every result, the counters, and
// the dirty-line count after each operation.
func TestPackedMatchesOracle(t *testing.T) {
	geoms := []Config{
		{Name: "dm-wt-ra", Size: 8 * units.KB, LineSize: 32, Assoc: 1, Write: WriteThrough, Alloc: ReadAllocate},
		{Name: "3w-wb-rwa", Size: 96 * units.KB, LineSize: 32, Assoc: 3, Write: WriteBack, Alloc: ReadWriteAllocate},
		{Name: "dm3072-wb-rwa", Size: 96 * units.KB, LineSize: 32, Assoc: 1, Write: WriteBack, Alloc: ReadWriteAllocate},
		{Name: "3w3072-wb-ra", Size: 288 * units.KB, LineSize: 32, Assoc: 3, Write: WriteBack, Alloc: ReadAllocate},
		{Name: "3w-wt-rwa", Size: 3 * units.KB, LineSize: 64, Assoc: 3, Write: WriteThrough, Alloc: ReadWriteAllocate},
		{Name: "dm-wb-ra", Size: 4 * units.MB, LineSize: 64, Assoc: 1, Write: WriteBack, Alloc: ReadAllocate},
		{Name: "tiny", Size: 32, LineSize: 64, Assoc: 2, Write: WriteBack, Alloc: ReadWriteAllocate},
	}
	for gi, cfg := range geoms {
		t.Run(cfg.Name, func(t *testing.T) {
			c := New(cfg)
			o := newOracle(cfg)
			rng := rand.New(rand.NewSource(int64(gi) + 1))
			span := int64(4 * cfg.Size)
			addr := func() access.Addr {
				// Word addresses over four cache sizes in one of three
				// node regions, so tags differ in their high bits too.
				return access.Addr(rng.Int63n(3)<<32 + rng.Int63n(span)&^7)
			}
			for op := 0; op < 60000; op++ {
				a := addr()
				switch k := rng.Intn(100); {
				case k < 55:
					if got, want := c.Access(a, false), o.access(a, false); got != want {
						t.Fatalf("op %d load %#x: %+v, want %+v", op, a, got, want)
					}
				case k < 85:
					if got, want := c.Access(a, true), o.access(a, true); got != want {
						t.Fatalf("op %d store %#x: %+v, want %+v", op, a, got, want)
					}
				case k < 90:
					l := o.line(a)
					if got := c.Contains(a); got != (l != nil) {
						t.Fatalf("op %d contains %#x = %v", op, a, got)
					}
					if got := c.Dirty(a); got != (l != nil && l.dirty) {
						t.Fatalf("op %d dirty %#x = %v", op, a, got)
					}
				case k < 94:
					l := o.line(a)
					present, dirty := c.Invalidate(a)
					if present != (l != nil) || dirty != (l != nil && l.dirty) {
						t.Fatalf("op %d invalidate %#x = %v,%v", op, a, present, dirty)
					}
					if l != nil {
						*l = oracleLine{}
						o.stats.Invalidations++
					}
				case k < 97:
					l := o.line(a)
					if got := c.SetDirty(a); got != (l != nil) {
						t.Fatalf("op %d setdirty %#x = %v", op, a, got)
					}
					if l != nil {
						l.dirty = true
					}
				case k < 99:
					c.Clean(a)
					if l := o.line(a); l != nil {
						l.dirty = false
					}
				case rng.Intn(20) == 0:
					c.InvalidateAll()
					for _, set := range o.sets {
						for i := range set {
							if set[i].valid {
								o.stats.Invalidations++
							}
							set[i] = oracleLine{}
						}
					}
					o.tick = 0
				}
				if got := c.Stats(); got != o.stats {
					t.Fatalf("op %d: stats %+v, want %+v", op, got, o.stats)
				}
				if c.tick != o.tick {
					t.Fatalf("op %d: tick %d, want %d", op, c.tick, o.tick)
				}
				// The brute-force recount scans every line, so it
				// runs on a prime period rather than every op.
				if op%97 == 0 {
					checkDirty(t, op, c, o)
				}
			}
			checkDirty(t, -1, c, o)
		})
	}
}
