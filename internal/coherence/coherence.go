// Package coherence implements the DEC 8400's bus-snooping coherence
// protocol as the shared-memory backend of its processing nodes. Every
// fill that misses a processor's three cache levels becomes a bus
// transaction: the other processors snoop it, a dirty holder
// intervenes with a cache-to-cache transfer ("the coherency mechanism
// detects misses on shared data and pulls the necessary cache lines
// over from a DRAM memory bank or from the caches of a remote
// processor board", §5.2), otherwise the interleaved shared DRAM
// supplies the line.
//
// The shared memory itself is modelled as a cache-less node.Node so
// that it has the same banked, stream-detected DRAM timing machinery
// as the private memories of the Cray nodes.
package coherence

import (
	"repro/internal/access"
	"repro/internal/bus"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/units"
)

// Controller is the snooping coherence controller of an SMP. It
// implements node.MemBackend.
type Controller struct {
	bus *bus.Bus
	// mem is the shared DRAM, modelled as a node without caches.
	mem *node.Node
	// nodes are the snooping processors.
	nodes []*node.Node //simlint:ignore statereset wiring installed once via Attach at machine construction

	ps probe.Scope
	// pulls counts fills satisfied by cache-to-cache intervention;
	// memFills counts fills satisfied by shared DRAM.
	pulls    probe.Counter
	memFills probe.Counter
}

// Stats is the comparable view of the controller's counters.
type Stats struct {
	// Pulls counts fills satisfied by cache-to-cache intervention.
	Pulls int64
	// MemFills counts fills satisfied by shared DRAM.
	MemFills int64
}

// New builds a controller over a bus and a shared-memory timing node,
// registering its counters under ps (a zero scope builds a private
// probe).
func New(b *bus.Bus, mem *node.Node, ps probe.Scope) *Controller {
	if !ps.Valid() {
		ps = probe.New().Scope("coh")
	}
	return &Controller{
		bus: b, mem: mem, ps: ps,
		pulls:    ps.Counter("pulls"),
		memFills: ps.Counter("mem_fills"),
	}
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats {
	return Stats{Pulls: c.pulls.Get(), MemFills: c.memFills.Get()}
}

// Attach registers the snooping processors. The controller must know
// all of them before the first Fill.
func (c *Controller) Attach(nodes []*node.Node) { c.nodes = nodes }

// Mem returns the shared-memory timing node.
func (c *Controller) Mem() *node.Node { return c.mem }

// Bus returns the snooping bus.
func (c *Controller) Bus() *bus.Bus { return c.bus }

// Fill implements node.MemBackend: deliver the line at address line
// to the requesting node.
func (c *Controller) Fill(nodeID int, line access.Addr, lineBytes units.Bytes, now units.Time) units.Time {
	// Snoop: a dirty holder intervenes.
	if other := c.dirtyHolder(nodeID, line); other != nil {
		_, done := c.bus.Transaction(bus.CacheToCache, now)
		// The supplier's copy stays resident but is now clean (it
		// answered the read with its data).
		other.CleanLine(line)
		c.pulls.Inc()
		if t := c.ps.Tracer(); t != nil {
			t.InstantArg("coh.c2c", "bus", c.ps.TID(), now, "supplier", int64(other.ID))
		}
		return done
	}
	// Shared DRAM supplies the line. The address and snoop phases
	// occupy the bus; the memory read proceeds in parallel on the
	// memory side (split transaction), then the data burst crosses
	// the bus.
	start, busDone := c.bus.Transaction(bus.LineBurst, now)
	memReady := c.mem.LoadReady(line, start)
	c.memFills.Inc()
	if memReady > busDone {
		return memReady
	}
	return busDone
}

// Intervenes implements node.MemBackend: whether another node holds
// line dirty, so that a Fill would pull it over and leave it clean.
func (c *Controller) Intervenes(nodeID int, line access.Addr) bool {
	return c.dirtyHolder(nodeID, line) != nil
}

// dirtyHolder returns the first node other than nodeID whose cache
// holds line dirty — the snoop's supplier — or nil.
func (c *Controller) dirtyHolder(nodeID int, line access.Addr) *node.Node {
	for _, other := range c.nodes {
		if other.ID != nodeID && other.HoldsDirty(line) {
			return other
		}
	}
	return nil
}

// Write implements node.MemBackend: absorb a write of nb bytes at a
// (write-buffer drains and victim write-backs cross the bus into the
// shared DRAM).
func (c *Controller) Write(nodeID int, a access.Addr, nb units.Bytes, now units.Time) units.Time {
	phase := bus.WordTransfer
	if nb >= 64 {
		phase = bus.LineBurst
	}
	start, busDone := c.bus.Transaction(phase, now)
	// Other processors snoop the write and invalidate their copies.
	for _, other := range c.nodes {
		if other.ID != nodeID {
			other.InvalidateLine(a)
		}
	}
	memDone := c.mem.EngineWrite(a, nb, start)
	if memDone > busDone {
		return memDone
	}
	return busDone
}

// Reset clears bus and memory occupancy state (between measurements).
func (c *Controller) Reset() {
	c.bus.Reset()
	c.mem.ResetTiming()
	c.ps.Reset()
}
