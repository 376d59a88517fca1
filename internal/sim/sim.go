// Package sim provides the timing primitives of the memory-system
// simulator: pipelined resources with initiation intervals, and a
// latency-hiding window that models how an unrolled compiled loop
// overlaps CPU issue with outstanding memory operations.
//
// The simulator is a cycle-cost model, not an event-driven machine:
// each access walks the hierarchy and the components respond with
// completion times computed from their occupancy state. This keeps
// multi-million-access sweeps fast while preserving the queueing
// effects (fill pipelining, bank conflicts, bus arbitration) that
// shape the paper's bandwidth surfaces.
package sim

import "repro/internal/units"

// Resource models a pipelined hardware unit (a cache fill path, a DRAM
// bank, a bus, a network link). A request occupies the resource for an
// initiation interval; the next request cannot begin before the
// previous occupancy ends. This yields bandwidth limits under load and
// idle-latency behaviour when requests are sparse.
type Resource struct {
	busyUntil units.Time
}

// Acquire reserves the resource at the earliest time >= now, occupying
// it for the given interval. It returns the time the request started
// service (i.e. when the resource became available to it).
func (r *Resource) Acquire(now, interval units.Time) (start units.Time) {
	start = now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + interval
	return start
}

// Peek returns the earliest time the resource could accept a request
// issued at now, without reserving it.
func (r *Resource) Peek(now units.Time) units.Time {
	if r.busyUntil > now {
		return r.busyUntil
	}
	return now
}

// Reset clears the occupancy state (used between benchmark passes).
func (r *Resource) Reset() { r.busyUntil = 0 }

// Window models the latency-hiding capability of a compiled, unrolled
// loop: a load issued at cycle t is first consumed Depth issue slots
// later, so up to Depth slots of memory latency overlap with useful
// issue. The paper's benchmarks are "sufficiently unrolled to hide the
// latencies of the loads and floating point operations where they can
// be hidden" (§4.2 footnote); Window is that unrolling.
type Window struct {
	// Depth is the number of issue slots between a load's issue and
	// its first use. Typical compiled unrolling hides ~8 slots.
	Depth float64
}

// Hide returns the latency the window hides for a given issue slot:
// Depth*slot. Loops compute it once per run and pass it to
// StallHidden.
func (w Window) Hide(slot units.Time) units.Time { return units.Time(w.Depth) * slot }

// StallHidden returns the CPU stall charged when data issued at
// issueTime becomes ready at readyTime, given the latency hide (from
// Hide) the window covers. The remainder stalls the pipeline.
func (w Window) StallHidden(issueTime, readyTime, hide units.Time) units.Time {
	hidden := issueTime + hide
	if readyTime <= hidden {
		return 0
	}
	return readyTime - hidden
}

// Clock tracks the advancing simulated time of one processing element.
type Clock struct {
	now units.Time
}

// Now returns the current simulated time.
func (c *Clock) Now() units.Time { return c.now }

// Advance moves the clock forward by d (negative d is ignored).
func (c *Clock) Advance(d units.Time) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock to t if t is later than now.
func (c *Clock) AdvanceTo(t units.Time) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero.
func (c *Clock) Reset() { c.now = 0 }
