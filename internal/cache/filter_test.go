package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/units"
)

// cacheState is everything a query may touch: the tag words, LRU
// stamps, clock, counters and the two line counts the guards read.
type cacheState struct {
	tags, lastUse        []int64
	tick                 int64
	resident, dirtyLines int64
	stats                Stats
}

func (s cacheState) equal(o cacheState) bool {
	return slices.Equal(s.tags, o.tags) && slices.Equal(s.lastUse, o.lastUse) &&
		s.tick == o.tick && s.resident == o.resident &&
		s.dirtyLines == o.dirtyLines && s.stats == o.stats
}

func stateOf(c *Cache) cacheState {
	return cacheState{
		tags:       append([]int64(nil), c.tags...),
		lastUse:    append([]int64(nil), c.lastUse...),
		tick:       c.tick,
		resident:   c.resident,
		dirtyLines: c.dirtyLines,
		stats:      c.Stats(),
	}
}

// scanLine finds the line holding a by reading every tag word, with no
// set indexing and no line counts: the reference the guarded queries
// must agree with.
func scanLine(c *Cache, a access.Addr) (present, dirty bool) {
	want := int64(c.LineAddr(a)) | tagValid
	for _, t := range c.tags {
		if t&^tagDirty == want {
			return true, t&tagDirty != 0
		}
	}
	return false, false
}

// checkCounts recounts the resident and dirty lines from the tags: the
// guards are exact only while the maintained counts are.
func checkCounts(t *testing.T, what string, c *Cache) {
	t.Helper()
	var resident int64
	for _, tag := range c.tags {
		if tag != 0 {
			resident++
		}
	}
	if c.resident != resident || c.dirtyLines != packedDirtyLines(c) {
		t.Fatalf("%s: resident %d, dirty %d; tags hold %d, %d",
			what, c.resident, c.dirtyLines, resident, packedDirtyLines(c))
	}
}

// filterScenario brings a cache into one of the states the guards
// answer for: empty, clean, or holding dirt, reached along each path
// that moves the counts.
type filterScenario struct {
	name  string
	setup func(c *Cache, rng *rand.Rand)
	// empty and clean are the states setup must leave, so a scenario
	// cannot silently stop covering its fast path.
	empty, clean bool
}

func filterScenarios(cfg Config) []filterScenario {
	// conflict is the address distance at which lines share a set.
	conflict := access.Addr(cfg.Size) / access.Addr(cfg.assoc())
	evict := func(c *Cache, a access.Addr) {
		for k := 1; k <= cfg.assoc(); k++ {
			c.Access(a+access.Addr(k)*conflict, false)
		}
	}
	return []filterScenario{
		{name: "fresh", setup: func(*Cache, *rand.Rand) {}, empty: true, clean: true},
		{name: "invalidated-last-line", setup: func(c *Cache, _ *rand.Rand) {
			c.Access(0x1040, true)
			c.Invalidate(0x1040)
		}, empty: true, clean: true},
		{name: "invalidated-all", setup: func(c *Cache, _ *rand.Rand) {
			for a := access.Addr(0); a < 4096; a += 40 {
				c.Access(a, a%80 == 0)
			}
			c.InvalidateAll()
		}, empty: true, clean: true},
		{name: "loads-only", setup: func(c *Cache, _ *rand.Rand) {
			for a := access.Addr(0); a < 4096; a += 24 {
				c.Access(a, false)
			}
		}, clean: true},
		{name: "cleaned-by-clean", setup: func(c *Cache, _ *rand.Rand) {
			c.Access(0x2000, false)
			c.SetDirty(0x2000)
			c.Access(0x3000, true)
			c.Clean(0x2000)
			c.Clean(0x3000)
		}, clean: true},
		{name: "cleaned-by-invalidate", setup: func(c *Cache, _ *rand.Rand) {
			c.Access(0x80, false)
			c.Access(0x2000, false)
			c.SetDirty(0x2000)
			c.Invalidate(0x2000)
		}, clean: true},
		{name: "cleaned-by-eviction", setup: func(c *Cache, _ *rand.Rand) {
			c.Access(0x2000, false)
			c.SetDirty(0x2000)
			evict(c, 0x2000)
		}, clean: true},
		{name: "one-dirty-line", setup: func(c *Cache, _ *rand.Rand) {
			c.Access(0x80, false)
			c.Access(0x2000, false)
			c.SetDirty(0x2000)
		}},
		{name: "mixed", setup: func(c *Cache, rng *rand.Rand) {
			for i := 0; i < 2000; i++ {
				c.Access(access.Addr(rng.Int63n(int64(4*cfg.Size))&^7), rng.Intn(3) == 0)
			}
			c.Access(0x2000, false)
			c.SetDirty(0x2000)
		}},
	}
}

// TestFilterMatchesScan drives each guarded query on empty, clean and
// dirty caches of several geometries, against a twin cache that runs
// the same queries through the unguarded searches. Every answer must
// match the twin's and a scan of every tag word; a query that finds
// nothing to change must leave tags, LRU stamps, clock, counters and
// line counts as they were; and the twins must end in the same state.
func TestFilterMatchesScan(t *testing.T) {
	geoms := []Config{
		{Name: "dm-wt-ra", Size: 8 * units.KB, LineSize: 32, Assoc: 1, Write: WriteThrough, Alloc: ReadAllocate},
		{Name: "3w-wb-rwa", Size: 96 * units.KB, LineSize: 32, Assoc: 3, Write: WriteBack, Alloc: ReadWriteAllocate},
		{Name: "dm3072-wb-rwa", Size: 96 * units.KB, LineSize: 32, Assoc: 1, Write: WriteBack, Alloc: ReadWriteAllocate},
		{Name: "dm-wb-ra", Size: 64 * units.KB, LineSize: 64, Assoc: 1, Write: WriteBack, Alloc: ReadAllocate},
	}
	for gi, cfg := range geoms {
		for si, sc := range filterScenarios(cfg) {
			t.Run(cfg.Name+"/"+sc.name, func(t *testing.T) {
				fast, slow := New(cfg), New(cfg)
				sc.setup(fast, rand.New(rand.NewSource(int64(gi*16+si))))
				sc.setup(slow, rand.New(rand.NewSource(int64(gi*16+si))))
				checkCounts(t, "setup", fast)
				if (fast.resident == 0) != sc.empty || (fast.dirtyLines == 0) != sc.clean {
					t.Fatalf("setup left %d lines, %d dirty; want empty %v, clean %v",
						fast.resident, fast.dirtyLines, sc.empty, sc.clean)
				}
				if !stateOf(fast).equal(stateOf(slow)) {
					t.Fatal("setup is not deterministic")
				}
				probes := []access.Addr{0, 0x80, 0x1040, 0x2000, 0x3000,
					0x2000 + access.Addr(cfg.Size), 1 << 32}
				for _, a := range probes {
					checkQueries(t, fast, slow, a)
				}
				rng := rand.New(rand.NewSource(int64(gi)))
				for op := 0; op < 200; op++ {
					a := probes[rng.Intn(len(probes))]
					if rng.Intn(2) == 0 {
						a = access.Addr(rng.Int63n(int64(4*cfg.Size)) &^ 7)
					}
					checkQueries(t, fast, slow, a)
					if rng.Intn(4) == 0 {
						// Move the state on so later queries see a
						// cache that fills, dirties and drains.
						store := rng.Intn(2) == 0
						if got, want := fast.Access(a, store), slow.Access(a, store); got != want {
							t.Fatalf("access %#x: %+v, twin %+v", a, got, want)
						}
					}
				}
				checkCounts(t, "end", fast)
			})
		}
	}
}

// checkQueries runs each guarded query at a on fast and the matching
// unguarded search on slow.
func checkQueries(t *testing.T, fast, slow *Cache, a access.Addr) {
	t.Helper()
	queries := []struct {
		name string
		run  func(c *Cache, guarded bool) any
		// scan is the answer a tag scan gives, given the line's
		// presence and dirt before the query.
		scan func(present, dirty bool) any
		// changes reports whether the full search may change state.
		changes func(present, dirty bool) bool
	}{
		{"Contains", func(c *Cache, g bool) any {
			if g {
				return c.Contains(a)
			}
			return c.contains(a)
		}, func(present, _ bool) any { return present },
			func(bool, bool) bool { return false }},
		{"Dirty", func(c *Cache, g bool) any {
			if g {
				return c.Dirty(a)
			}
			return c.dirty(a)
		}, func(_, dirty bool) any { return dirty },
			func(bool, bool) bool { return false }},
		{"Clean", func(c *Cache, g bool) any {
			if g {
				c.Clean(a)
			} else {
				c.clean(a)
			}
			return nil
		}, func(bool, bool) any { return nil },
			func(_, dirty bool) bool { return dirty }},
		{"SetDirty", func(c *Cache, g bool) any {
			if g {
				return c.SetDirty(a)
			}
			return c.setDirty(a)
		}, func(present, _ bool) any { return present },
			func(present, dirty bool) bool { return present && !dirty }},
		{"Invalidate", func(c *Cache, g bool) any {
			var p, d bool
			if g {
				p, d = c.Invalidate(a)
			} else {
				p, d = c.invalidate(a)
			}
			return [2]bool{p, d}
		}, func(present, dirty bool) any { return [2]bool{present, dirty} },
			func(present, _ bool) bool { return present }},
	}
	// Run the two lookups first, then the three updates in a rotating
	// order, so each update meets the states the others leave behind.
	start := int(a>>3) % 3
	for i := range queries {
		q := queries[i]
		if i >= 2 {
			q = queries[2+(start+i)%3]
		}
		present, dirty := scanLine(fast, a)
		before := stateOf(fast)
		got, want := q.run(fast, true), q.run(slow, false)
		if got != want {
			t.Fatalf("%s(%#x) = %v, full search %v", q.name, a, got, want)
		}
		if scan := q.scan(present, dirty); got != scan {
			t.Fatalf("%s(%#x) = %v, tag scan %v", q.name, a, got, scan)
		}
		after := stateOf(fast)
		if !q.changes(present, dirty) && !before.equal(after) {
			t.Fatalf("%s(%#x) found nothing to change but changed the cache:\nbefore %s\nafter  %s",
				q.name, a, summary(before), summary(after))
		}
		if !after.equal(stateOf(slow)) {
			t.Fatalf("%s(%#x): guarded cache %s, full search %s",
				q.name, a, summary(after), summary(stateOf(slow)))
		}
		checkCounts(t, q.name, fast)
	}
}

func summary(s cacheState) string {
	return fmt.Sprintf("{tick %d resident %d dirty %d stats %+v}", s.tick, s.resident, s.dirtyLines, s.stats)
}
