// Package cache implements the cache models of the three machines'
// memory hierarchies: direct-mapped and set-associative caches with
// write-through or write-back policies and configurable allocation,
// plus the Cray T3D's coalescing write-back queue (§3.2).
//
// Caches here are *functional* tag/state arrays: they answer hit/miss
// and report victim write-backs. Timing (fill occupancy, drain rates)
// is charged by the node model in internal/node, which owns the
// sim.Resource pipelines.
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/access"
	"repro/internal/probe"
	"repro/internal/units"
)

// WritePolicy selects how stores interact with a cache level.
type WritePolicy int

const (
	// WriteThrough propagates every store to the next level
	// immediately (DEC Alpha 21064/21164 L1 D-caches).
	WriteThrough WritePolicy = iota
	// WriteBack keeps dirty lines and writes them back on eviction
	// (21164 L2, DEC 8400 L3).
	WriteBack
)

func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// AllocPolicy selects whether stores allocate lines on miss.
type AllocPolicy int

const (
	// ReadAllocate allocates only on load misses; store misses
	// bypass the cache (the 21064 L1 is read-allocate, §3.2).
	ReadAllocate AllocPolicy = iota
	// ReadWriteAllocate allocates on both load and store misses.
	ReadWriteAllocate
)

func (a AllocPolicy) String() string {
	if a == ReadAllocate {
		return "read-allocate"
	}
	return "read-write-allocate"
}

// Config describes a cache level's geometry and policies.
type Config struct {
	Name     string
	Size     units.Bytes
	LineSize units.Bytes
	// Assoc is the set associativity; 1 (or 0) is direct mapped.
	Assoc  int
	Write  WritePolicy
	Alloc  AllocPolicy
	Shared bool // unified I/D (21164 L2); informational only
	// Probe is the registration scope for the level's counters. A
	// zero scope makes the cache register into a private probe, so
	// standalone caches (tests) still count.
	Probe probe.Scope
}

func (c Config) String() string {
	return fmt.Sprintf("%s %v %d-way %vB lines %v %v",
		c.Name, c.Size, c.assoc(), int64(c.LineSize), c.Write, c.Alloc)
}

func (c Config) assoc() int {
	if c.Assoc < 1 {
		return 1
	}
	return c.Assoc
}

// Stats is the comparable view of a cache level's counters. The
// storage lives in the probe registry; Stats is assembled on demand.
type Stats struct {
	ReadHits, ReadMisses   int64
	WriteHits, WriteMisses int64
	WriteBacks             int64
	Invalidations          int64
}

// Accesses returns the total number of accesses counted.
func (s Stats) Accesses() int64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// HitRate returns the fraction of accesses that hit, or 0 if none.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(a)
}

// Tag word flags. A resident line's tag word is its line address with
// tagValid set, and tagDirty set once the line is modified; an empty
// way is the zero word. Both flags live in address bits that line
// alignment keeps zero, so line sizes must be at least 4 bytes.
const (
	tagValid int64 = 1 << 0
	tagDirty int64 = 1 << 1
	tagFlags       = tagValid | tagDirty
)

// Cache is one level of a memory hierarchy.
type Cache struct {
	cfg Config
	// tags holds one packed tag word per way, set-major: set s owns
	// tags[s*assoc : (s+1)*assoc].
	tags []int64
	// lastUse orders the ways of a set for LRU replacement, indexed
	// like tags; nil when the cache is direct mapped.
	lastUse []int64
	assoc   int64
	numSets int64
	// setMask is numSets-1 when numSets is a power of two; otherwise
	// it is -1 and setBase falls back to a modulo (a 96 KB
	// direct-mapped cache has 3072 sets).
	setMask   int64
	lineShift uint
	lineMask  int64
	tick      int64
	// dirtyLines counts resident dirty lines, so Dirty answers at
	// once on a cache holding none — the common case of the 8400's
	// snoop on every fill.
	dirtyLines int64

	ps probe.Scope
	// counter handles into the probe registry
	readHits, readMisses   probe.Counter
	writeHits, writeMisses probe.Counter
	writeBacks             probe.Counter
	invalidations          probe.Counter
}

// New builds a cache from its configuration. It panics on a line size
// that is not a power of two of at least 4 bytes, which none of the
// modelled machines use. Set counts may be any positive number.
func New(cfg Config) *Cache {
	assoc := int64(cfg.assoc())
	lines := int64(cfg.Size / cfg.LineSize)
	numSets := lines / assoc
	if numSets == 0 {
		numSets = 1
	}
	if cfg.LineSize < 4 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two of at least 4 bytes", cfg.Name, cfg.LineSize))
	}
	c := &Cache{
		cfg:       cfg,
		tags:      make([]int64, numSets*assoc),
		assoc:     assoc,
		numSets:   numSets,
		setMask:   -1,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		lineMask:  int64(cfg.LineSize) - 1,
	}
	if numSets&(numSets-1) == 0 {
		c.setMask = numSets - 1
	}
	if assoc > 1 {
		c.lastUse = make([]int64, numSets*assoc)
	}
	c.ps = cfg.Probe
	if !c.ps.Valid() {
		name := strings.ToLower(cfg.Name)
		if name == "" {
			name = "cache"
		}
		c.ps = probe.New().Scope(name)
	}
	c.readHits = c.ps.Counter("read_hits")
	c.readMisses = c.ps.Counter("read_misses")
	c.writeHits = c.ps.Counter("write_hits")
	c.writeMisses = c.ps.Counter("write_misses")
	c.writeBacks = c.ps.Counter("writebacks")
	c.invalidations = c.ps.Counter("invalidations")
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the access counters.
func (c *Cache) Stats() Stats {
	return Stats{
		ReadHits:      c.readHits.Get(),
		ReadMisses:    c.readMisses.Get(),
		WriteHits:     c.writeHits.Get(),
		WriteMisses:   c.writeMisses.Get(),
		WriteBacks:    c.writeBacks.Get(),
		Invalidations: c.invalidations.Get(),
	}
}

// Scope returns the cache's probe registration scope.
func (c *Cache) Scope() probe.Scope { return c.ps }

// LineAddr returns the address of the line containing a.
func (c *Cache) LineAddr(a access.Addr) access.Addr {
	return a &^ access.Addr(c.lineMask)
}

// setBase returns the index in tags of the first way of the set that
// line address lineA maps to.
func (c *Cache) setBase(lineA int64) int64 {
	idx := lineA >> c.lineShift
	if c.setMask >= 0 {
		idx &= c.setMask
	} else {
		idx %= c.numSets
	}
	return idx * c.assoc
}

// lookup returns the tags index of the way holding line address lineA
// in the set starting at base, or -1 when the line is not resident.
func (c *Cache) lookup(base, lineA int64) int64 {
	want := lineA | tagValid
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i]&^tagDirty == want {
			return i
		}
	}
	return -1
}

// find returns the tags index of the way holding the line containing
// a, or -1.
func (c *Cache) find(a access.Addr) int64 {
	lineA := int64(a) &^ c.lineMask
	return c.lookup(c.setBase(lineA), lineA)
}

// markDirty sets way i's dirty flag, keeping the dirty-line count.
func (c *Cache) markDirty(i int64) {
	if c.tags[i]&tagDirty == 0 {
		c.tags[i] |= tagDirty
		c.dirtyLines++
	}
}

// install places line address lineA in the set starting at base —
// the first invalid way, else the least recently used — and returns
// the way plus the address of a dirty victim the caller owes a
// write-back (valid when hasWB).
func (c *Cache) install(base, lineA int64) (way int64, wb access.Addr, hasWB bool) {
	way = base
	if c.lastUse != nil {
		for i := base; i < base+c.assoc; i++ {
			if c.tags[i] == 0 {
				way = i
				break
			}
			if c.lastUse[i] < c.lastUse[way] {
				way = i
			}
		}
		c.lastUse[way] = c.tick
	}
	if old := c.tags[way]; old&tagDirty != 0 {
		wb, hasWB = access.Addr(old&^tagFlags), true
		c.dirtyLines--
	}
	c.tags[way] = lineA | tagValid
	return way, wb, hasWB
}

// Result reports the outcome of an Access.
type Result struct {
	Hit bool
	// Filled is true when the access allocated a line (a fill from
	// the next level happened).
	Filled bool
	// WriteBack is the line address of a dirty victim that must be
	// written to the next level, valid when HasWriteBack.
	WriteBack    access.Addr
	HasWriteBack bool
	// WriteThrough is true when a store must also be sent to the
	// next level (write-through policy or non-allocating miss).
	WriteThrough bool
}

// Access performs a load (isWrite=false) or store (isWrite=true) at
// byte address a, updating tags and returning what the next level
// must do.
func (c *Cache) Access(a access.Addr, isWrite bool) Result {
	c.tick++
	lineA := int64(a) &^ c.lineMask
	base := c.setBase(lineA)

	// Probe.
	if i := c.lookup(base, lineA); i >= 0 {
		if c.lastUse != nil {
			c.lastUse[i] = c.tick
		}
		if isWrite {
			c.writeHits.Inc()
			if c.cfg.Write == WriteBack {
				c.markDirty(i)
				return Result{Hit: true}
			}
			return Result{Hit: true, WriteThrough: true}
		}
		c.readHits.Inc()
		return Result{Hit: true}
	}

	// Miss.
	if isWrite {
		c.writeMisses.Inc()
		if c.cfg.Alloc == ReadAllocate {
			// Non-allocating store miss goes straight through.
			return Result{WriteThrough: true}
		}
	} else {
		c.readMisses.Inc()
	}

	way, wb, hasWB := c.install(base, lineA)
	res := Result{Filled: true, WriteBack: wb, HasWriteBack: hasWB}
	if hasWB {
		c.writeBacks.Inc()
	}
	if isWrite {
		if c.cfg.Write == WriteBack {
			c.markDirty(way)
		} else {
			res.WriteThrough = true
		}
	}
	return res
}

// Contains reports whether the line holding a is present (no state
// update; used by coherence probes).
func (c *Cache) Contains(a access.Addr) bool {
	return c.find(a) >= 0
}

// Dirty reports whether the line holding a is present and dirty.
func (c *Cache) Dirty(a access.Addr) bool {
	if c.dirtyLines == 0 {
		return false
	}
	i := c.find(a)
	return i >= 0 && c.tags[i]&tagDirty != 0
}

// Invalidate drops the line containing a, returning whether it was
// present and dirty (the caller then owes a write-back). The T3D
// invalidates its L1 "line by line as data is stored into local
// memory" by the remote-deposit circuitry (§3.2); the 8400's snooping
// protocol invalidates on remote writes.
func (c *Cache) Invalidate(a access.Addr) (present, dirty bool) {
	i := c.find(a)
	if i < 0 {
		return false, false
	}
	dirty = c.tags[i]&tagDirty != 0
	if dirty {
		c.dirtyLines--
	}
	c.tags[i] = 0
	if c.lastUse != nil {
		c.lastUse[i] = 0
	}
	c.invalidations.Inc()
	return true, dirty
}

// InvalidateAll flushes every line ("invalidated entirely when the
// program reaches a synchronization point", §3.2). Dirty lines are
// discarded; the modelled T3D L1 is write-through so no data is lost.
func (c *Cache) InvalidateAll() {
	var valid int64
	for _, t := range c.tags {
		if t != 0 {
			valid++
		}
	}
	c.invalidations.Add(valid)
	for i := range c.tags {
		c.tags[i] = 0
	}
	for i := range c.lastUse {
		c.lastUse[i] = 0
	}
	c.dirtyLines = 0
	// Every line's lastUse is now zero, so the LRU clock may restart
	// from zero too; leaving it warm would let tick values leak from
	// one sweep point into the next.
	c.tick = 0
}

// ResetStats zeroes the access counters without touching lines
// (every counter registered under the cache's scope).
func (c *Cache) ResetStats() { c.ps.Reset() }

// SetDirty marks the line containing a dirty if present, reporting
// whether it was found (a victim from the level above landed in this
// level and must eventually be written back further down).
func (c *Cache) SetDirty(a access.Addr) bool {
	i := c.find(a)
	if i < 0 {
		return false
	}
	c.markDirty(i)
	return true
}

// Clean marks the line containing a clean if present (after a
// coherence write-back supplied the data to another processor).
func (c *Cache) Clean(a access.Addr) {
	if i := c.find(a); i >= 0 && c.tags[i]&tagDirty != 0 {
		c.tags[i] &^= tagDirty
		c.dirtyLines--
	}
}
