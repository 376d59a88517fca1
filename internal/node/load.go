package node

import (
	"repro/internal/access"
	"repro/internal/units"
)

// LoadWord performs one element of a load-sum loop at address a,
// advancing the node's clock by the issue slot plus any exposed
// memory stall. The loaded value is consumed (summed), so latency
// beyond the unrolling window stalls the pipeline.
func (n *Node) LoadWord(a access.Addr) {
	now := n.clock.Now()
	slot := n.cfg.CPU.LoadSlot()
	ready := n.resolveLoad(a, now)
	stall := n.window.Stall(now, ready, slot)
	n.loads.Inc()
	n.issueTime.Add(slot)
	n.loadStall.Add(stall)
	n.clock.Advance(slot + stall)
}

// LoadReady resolves a load issued at time now and returns when the
// data is available, without touching the node clock. Remote engines
// and planners use it.
func (n *Node) LoadReady(a access.Addr, now units.Time) units.Time {
	return n.resolveLoad(a, now)
}

// PrimeRun leaves the machine's functional state — cache tags, dirty
// bits, LRU order and each cache's clock — exactly as LoadRun(start,
// step, count) would, but charges no time. It is the benchmarks'
// priming pass (§5: "start with a primed cache for exactly that
// working set"); every caller runs ResetTiming right after it, which
// discards the pass's timing and the counters it bumps. The rare
// accesses with effects beyond this node's tags — a dirty victim, a
// remote address, a fill that another node's dirty copy supplies —
// take the timed path, so the result is exact from any starting
// state, not only after a ColdReset.
func (n *Node) PrimeRun(start access.Addr, step, count int64) {
	snoop := n.othersDirty()
	a := start
	for i := int64(0); i < count; i++ {
		n.primeLoad(a, snoop)
		a += access.Addr(step)
	}
}

// othersDirty reports whether a priming run must snoop its fills: a
// backend is attached and another node holds a dirty line. The answer
// holds for the whole run (MemBackend.OthersDirty).
func (n *Node) othersDirty() bool {
	return n.backend != nil && n.backend.OthersDirty(n.ID)
}

// primeLoad walks one load through the cache levels in the order of
// resolveLoad and fillFrom, without their timing.
func (n *Node) primeLoad(a access.Addr, snoop bool) {
	if n.remoteAddr(a) && n.remoteRd != nil {
		_ = n.resolveLoad(a, n.clock.Now())
		return
	}
	n.primeFill(0, a, snoop)
}

// primeFill walks a fill of the line containing a through cache
// levels k.. and DRAM in the order of fillFrom and dramFill, without
// their timing. snoop is the run's othersDirty answer: when it is
// false no other node can supply the line, and the backend is not
// asked.
func (n *Node) primeFill(k int, a access.Addr, snoop bool) {
	for j := k; j < len(n.caches); j++ {
		r := n.caches[j].Access(a, false)
		if r.HasWriteBack() {
			n.writeVictim(j, r.WriteBack(), n.clock.Now())
		}
		if r.Hit {
			return
		}
	}
	// Every level missed. Of dramFill's effects only the backend's
	// snoop reaches beyond this node's timing, and dramFill skips
	// even that when the line rides on the previous fill, so the
	// free-ride state is tracked here exactly as dramFill keeps it.
	line := a &^ (access.Addr(n.cfg.DRAM.LineBytes) - 1)
	if n.dramValid && n.dramLast == line {
		return
	}
	if snoop && n.backend.Intervenes(n.ID, line) {
		_ = n.dramFill(a, n.clock.Now())
		return
	}
	n.dramValid = true
	n.dramLast = line
}

// resolveLoad walks the hierarchy for a load of the word at a.
func (n *Node) resolveLoad(a access.Addr, now units.Time) units.Time {
	// Remote addresses bypass the local caches entirely on the
	// distributed-memory machines ("the L1/L2 caches of different
	// processing elements do not cache all global memory", §1):
	// every naive remote load is a full network round trip.
	if n.remoteAddr(a) && n.remoteRd != nil {
		ready := n.remoteRd(a, units.Word, now)
		if t := n.ps.Tracer(); t != nil {
			t.Span("remote.read", "net", n.ps.TID(), now, ready)
		}
		return ready
	}
	if len(n.caches) == 0 {
		return n.dramFill(a, now)
	}
	r := n.caches[0].Access(a, false)
	if r.Hit {
		return now // L1 hit: fully pipelined within the issue slot
	}
	if r.HasWriteBack() {
		n.writeVictim(0, r.WriteBack(), now)
	}
	return n.fillFrom(1, a, now)
}

// fillFrom finds the provider of the line containing a among cache
// levels k.. and DRAM, installing the line in the traversed levels
// (read allocation) and returning when the data reaches the core.
func (n *Node) fillFrom(k int, a access.Addr, now units.Time) units.Time {
	for j := k; j < len(n.caches); j++ {
		r := n.caches[j].Access(a, false)
		if r.HasWriteBack() {
			n.writeVictim(j, r.WriteBack(), now)
		}
		if r.Hit {
			return n.chargeFill(j, a, now)
		}
	}
	ready := n.dramFill(a, now)
	// The DRAM fill installed a memory line in the deepest cache;
	// mark that level's free-ride state so upper-level misses within
	// the same memory line (e.g. the two 32-byte L2 halves of a
	// 64-byte L3 line) ride along instead of re-charging the deep
	// cache.
	if j := len(n.caches) - 1; j > 0 {
		line := n.caches[j].LineAddr(a)
		n.lastValid[j] = true
		n.lastLine[j] = line
		n.lastReady[j] = ready
		n.seqNext[j] = line + access.Addr(n.cfg.Levels[j].Cache.LineSize)
	}
	return ready
}

// chargeFill charges the fill machinery of provider cache level j for
// delivering the line containing a.
func (n *Node) chargeFill(j int, a access.Addr, now units.Time) units.Time {
	if j == 0 {
		return now
	}
	spec := &n.cfg.Levels[j]
	line := n.caches[j].LineAddr(a)
	lineBytes := access.Addr(spec.Cache.LineSize)

	// Free ride: a second upper-level miss within the same provider
	// line (e.g. the 8400's L2 read-allocating a whole 64-byte L3
	// line as two 32-byte L2 lines, §5.1) does not pay again.
	if n.lastValid[j] && n.lastLine[j] == line {
		if n.lastReady[j] > now {
			return n.lastReady[j]
		}
		return now
	}

	occ := spec.WordOcc
	if n.seqNext[j] == line && line != 0 {
		occ = spec.FillOcc
	}
	n.seqNext[j] = line + lineBytes

	start := n.fills[j].Acquire(now, occ)
	ready := start + occ
	n.fillTime[j].Add(occ)
	if t := n.ps.Tracer(); t != nil {
		t.Span(n.fillEv[j], "mem", n.ps.TID(), start, ready)
	}
	n.lastValid[j] = true
	n.lastLine[j] = line
	n.lastReady[j] = ready
	return ready
}

// dramFill charges the memory system for delivering the line
// containing a: through the shared-memory backend when one is
// attached, otherwise through the private DRAM path with stream
// detection and bank conflicts.
func (n *Node) dramFill(a access.Addr, now units.Time) units.Time {
	d := &n.cfg.DRAM
	line := a &^ (access.Addr(d.LineBytes) - 1)

	if n.dramValid && n.dramLast == line {
		if n.dramReady > now {
			return n.dramReady
		}
		return now
	}

	if n.backend != nil {
		// The node's own board interface (its path onto the bus)
		// limits per-processor fill bandwidth; the shared memory
		// behind the backend has higher aggregate capacity (§5.1:
		// four processors degrade DRAM bandwidth only 8-25%).
		sequential := n.dramSeq == line && line != 0
		streaming := n.det.OnMiss(line)
		n.dramSeq = line + access.Addr(d.LineBytes)
		occ := d.WordOcc
		if streaming {
			occ = d.SeqOcc
		} else if sequential {
			occ = d.SeqOccNoStream
		}
		start := n.port.Acquire(now, occ)
		ready := n.backend.Fill(n.ID, line, d.LineBytes, start)
		if start+occ > ready {
			ready = start + occ
		}
		n.dramFills.Inc()
		n.dramFillTime.Add(occ)
		if t := n.ps.Tracer(); t != nil {
			t.Span("dram.fill", "mem", n.ps.TID(), start, ready)
		}
		n.dramValid = true
		n.dramLast = line
		n.dramReady = ready
		return ready
	}

	sequential := n.dramSeq == line && line != 0
	streaming := n.det.OnMiss(line)
	n.dramSeq = line + access.Addr(d.LineBytes)

	var occ units.Time
	switch {
	case streaming:
		occ = d.SeqOcc
		n.dramStreamFills.Inc()
	case sequential:
		occ = d.SeqOccNoStream
	default:
		occ = d.WordOcc
	}

	start := n.port.Acquire(now, occ)
	bankDone := n.banks.Access(line, 0, start)
	ready := start + occ
	if bankDone > ready {
		ready = bankDone
	}
	n.dramFills.Inc()
	n.dramFillTime.Add(occ)
	if t := n.ps.Tracer(); t != nil {
		t.Span("dram.fill", "mem", n.ps.TID(), start, ready)
	}
	n.dramValid = true
	n.dramLast = line
	n.dramReady = ready
	return ready
}
