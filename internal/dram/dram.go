// Package dram models the main-memory systems of the three machines:
// interleaved banks with open-row (page mode) acceleration. "DRAM
// accesses within the same DRAM page are accelerated" on the T3D
// (§3.2); the DEC 8400's memory modules are "two-way interleaved"
// with up to 8-way interleave (§3.1); and the ripples in the T3E's
// deposit figures "indicate that the memory system at the destination
// node has difficulties storing data at full network speed if the
// same bank is hit in consecutive receives" (§5.6) — bank conflicts,
// which this model reproduces.
package dram

import (
	"math/bits"

	"repro/internal/access"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config describes a node's (or board's) DRAM system.
type Config struct {
	Name string
	// Banks is the interleave factor.
	Banks int
	// InterleaveBytes is the chunk size rotated across banks.
	InterleaveBytes units.Bytes
	// RowBytes is the DRAM page size per bank.
	RowBytes units.Bytes

	// RowHit is the bank occupancy of an access that hits the open
	// row (page-mode access).
	RowHit units.Time
	// RowMiss is the bank occupancy of an access that must
	// precharge and activate a new row.
	RowMiss units.Time
	// PerByte is the additional occupancy per byte transferred.
	PerByte units.Time

	// Probe is the registration scope for the memory system's
	// counters; a zero scope registers into a private probe.
	Probe probe.Scope
}

// Stats is the comparable view of the memory system's counters. The
// storage lives in the probe registry; Stats is assembled on demand.
type Stats struct {
	Accesses  int64
	RowHits   int64
	RowMisses int64
	// ConflictWait is total time requests waited on busy banks — the
	// signature of same-bank strides.
	ConflictWait units.Time
	Bytes        units.Bytes
}

type bank struct {
	res     sim.Resource
	openRow int64
	hasRow  bool
}

// DRAM is a banked, page-mode main memory.
type DRAM struct {
	cfg   Config
	banks []bank
	// shifts selects the division-free bankAndRow, valid when the
	// interleave, bank count and row size are all powers of two (all
	// three modelled machines): chunk, bank and row indices are then
	// shifts and a mask.
	shifts                        bool
	ilvShift, bankShift, rowShift uint
	bankMask                      int64

	ps probe.Scope
	// counter handles into the probe registry
	accesses     probe.Counter
	rowHits      probe.Counter
	rowMisses    probe.Counter
	conflictWait probe.TimeCounter
	bytes        probe.ByteCounter
}

// New builds a DRAM system. Banks and sizes must be positive.
func New(cfg Config) *DRAM {
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	if cfg.InterleaveBytes <= 0 {
		cfg.InterleaveBytes = 64
	}
	if cfg.RowBytes <= 0 {
		cfg.RowBytes = 2 * units.KB
	}
	d := &DRAM{cfg: cfg, banks: make([]bank, cfg.Banks)}
	ilv, ilvOK := log2(int64(cfg.InterleaveBytes))
	nb, nbOK := log2(int64(cfg.Banks))
	row, rowOK := log2(int64(cfg.RowBytes))
	if ilvOK && nbOK && rowOK {
		d.shifts = true
		d.ilvShift, d.bankShift, d.rowShift = ilv, nb, row
		d.bankMask = int64(cfg.Banks) - 1
	}
	d.ps = cfg.Probe
	if !d.ps.Valid() {
		name := cfg.Name
		if name == "" {
			name = "dram"
		}
		d.ps = probe.New().Scope(name)
	}
	d.accesses = d.ps.Counter("accesses")
	d.rowHits = d.ps.Counter("row_hits")
	d.rowMisses = d.ps.Counter("row_misses")
	d.conflictWait = d.ps.TimeCounter("conflict_wait")
	d.bytes = d.ps.ByteCounter("bytes")
	return d
}

// Config returns the memory system's configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a snapshot of the counters.
func (d *DRAM) Stats() Stats {
	return Stats{
		Accesses:     d.accesses.Get(),
		RowHits:      d.rowHits.Get(),
		RowMisses:    d.rowMisses.Get(),
		ConflictWait: d.conflictWait.Get(),
		Bytes:        d.bytes.Get(),
	}
}

// Scope returns the memory system's probe registration scope.
func (d *DRAM) Scope() probe.Scope { return d.ps }

// bankAndRow decomposes an address under the interleave scheme:
// consecutive InterleaveBytes chunks rotate across banks; within a
// bank, rows cover RowBytes of that bank's address space.
func (d *DRAM) bankAndRow(a access.Addr) (bankIdx int, row int64) {
	if d.shifts {
		chunk := int64(a) >> d.ilvShift
		return int(chunk & d.bankMask), chunk >> d.bankShift << d.ilvShift >> d.rowShift
	}
	chunk := int64(a) / int64(d.cfg.InterleaveBytes)
	bankIdx = int(chunk % int64(d.cfg.Banks))
	withinBank := chunk / int64(d.cfg.Banks) * int64(d.cfg.InterleaveBytes)
	row = withinBank / int64(d.cfg.RowBytes)
	return bankIdx, row
}

// log2 returns the base-2 logarithm of x and whether x is a power of
// two.
func log2(x int64) (uint, bool) {
	return uint(bits.TrailingZeros64(uint64(x))), x > 0 && x&(x-1) == 0
}

// Access performs a read or write of n bytes at address a, issued at
// time now. It returns the time the data transfer completes. Queueing
// behind a busy bank is modelled; accesses to distinct banks proceed
// in parallel.
func (d *DRAM) Access(a access.Addr, n units.Bytes, now units.Time) units.Time {
	bi, row := d.bankAndRow(a)
	b := &d.banks[bi]

	occ := d.cfg.RowMiss
	if b.hasRow && b.openRow == row {
		occ = d.cfg.RowHit
		d.rowHits.Inc()
	} else {
		d.rowMisses.Inc()
		b.openRow = row
		b.hasRow = true
	}
	occ += d.cfg.PerByte.ByteCost(n)

	start := b.res.Acquire(now, occ)
	if start > now {
		d.conflictWait.Add(start - now)
		if t := d.ps.Tracer(); t != nil {
			t.InstantArg("bank.conflict", "mem", d.ps.TID(), now, "bank", int64(bi))
		}
	}
	d.accesses.Inc()
	d.bytes.Add(n)
	return start + occ
}

// Peek returns the completion time Access would report, without
// mutating any state. Used by planners estimating costs.
func (d *DRAM) Peek(a access.Addr, n units.Bytes, now units.Time) units.Time {
	bi, row := d.bankAndRow(a)
	b := d.banks[bi]
	occ := d.cfg.RowMiss
	if b.hasRow && b.openRow == row {
		occ = d.cfg.RowHit
	}
	occ += d.cfg.PerByte.ByteCost(n)
	return b.res.Peek(now) + occ
}

// Reset clears bank occupancy and open-row state between passes.
func (d *DRAM) Reset() {
	for i := range d.banks {
		d.banks[i] = bank{}
	}
}

// ResetStats zeroes the counters without touching bank state.
func (d *DRAM) ResetStats() { d.ps.Reset() }
