package node

import (
	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/units"
)

// StoreWord performs one element of a store loop at address a,
// advancing the clock by the issue slot plus any exposed stall
// (stores retire into buffers; stalls arise only from backpressure).
func (n *Node) StoreWord(a access.Addr) {
	now := n.clock.Now()
	slot := n.cfg.CPU.StoreSlot()
	stall := n.resolveStore(a, now)
	n.stores.Inc()
	n.issueTime.Add(slot)
	n.storeStall.Add(stall)
	n.clock.Advance(slot + stall)
}

// CopyWord performs one element of a load/store copy loop: load the
// word at src, store it at dst.
func (n *Node) CopyWord(src, dst access.Addr) {
	now := n.clock.Now()
	slot := n.cfg.CPU.CopySlot()
	ready := n.resolveLoad(src, now)
	loadStall := n.window.Stall(now, ready, slot)
	storeStall := n.resolveStore(dst, now+loadStall)
	n.loads.Inc()
	n.stores.Inc()
	n.issueTime.Add(slot)
	n.loadStall.Add(loadStall)
	n.storeStall.Add(storeStall)
	n.clock.Advance(slot + loadStall + storeStall)
}

// PrimeStoreRun leaves the machine's functional state — cache tags,
// dirty bits, LRU order, each cache's clock, the write-combine run
// state and the write buffer's open entry — exactly as StoreRun(start,
// step, count) would, but charges no time. It is the store half of
// the PrimeRun contract: every caller flushes the write buffer and
// runs ResetTiming before it measures. The cases with effects beyond
// this node's tags take the timed path: a dirty victim, a
// write-allocate fill that another node's dirty copy supplies, and a
// write-buffer drain that leaves through the coherence backend or the
// remote router (a remote address). Drains into the node's private
// DRAM change only timing state and are skipped.
//
// Once a store retires into a write-back hit without allocating, every
// later store of the run to the same line repeats it exactly, at the
// same levels and with the same outcome, so those stores are folded
// into one RepeatStore per level.
func (n *Node) PrimeStoreRun(start access.Addr, step, count int64) {
	var line int64
	for _, l := range n.cfg.Levels {
		if sz := int64(l.Cache.LineSize); line == 0 || sz < line {
			line = sz
		}
	}
	snoop := n.othersDirty()
	a := start
	for i := int64(0); i < count; {
		k := n.primeStore(a, snoop)
		i++
		if k >= 0 {
			rest := count - i
			if step != 0 {
				// Further stores of the run inside a's line.
				var inLine int64
				if step > 0 && step < line {
					inLine = (line - 1 - int64(a)&(line-1)) / step
				}
				rest = min(rest, inLine)
			}
			if rest > 0 {
				a += access.Addr(rest * step)
				n.repeatStore(k, a, step, rest)
				i += rest
			}
		}
		a += access.Addr(step)
	}
}

// primeStore walks one store through the cache levels in the order of
// resolveStore, without its timing. It returns the level whose
// write-back hit retired the store, or -1 when the store allocated a
// line or left the caches. snoop is as for primeFill.
func (n *Node) primeStore(a access.Addr, snoop bool) int {
	n.noteStore(a)
	for k, c := range n.caches {
		r := c.Access(a, true)
		if r.HasWriteBack() {
			n.writeVictim(k, r.WriteBack(), n.clock.Now())
		}
		switch {
		case r.Hit && !r.WriteThrough:
			return k
		case r.Hit:
		case r.Filled:
			if !n.combines(k) {
				n.primeFill(k+1, a, snoop)
			}
			return -1
		}
	}
	_ = n.wb.Push(a, n.clock.Now(), n.primeWrite)
	return -1
}

// repeatStore replays count stores of a run with the given step, the
// last at address last, each repeating the retired store before them
// at levels 0..k.
func (n *Node) repeatStore(k int, last access.Addr, step, count int64) {
	for j := 0; j <= k; j++ {
		n.caches[j].RepeatStore(last, count)
	}
	if step == int64(units.Word) {
		n.storeRunLen += count
	} else {
		n.storeRunLen = 1
	}
	n.storeRunNext = last + access.Addr(units.Word)
}

// primeWrite is the write buffer's drain target during a store prime.
// A drain through the coherence backend or the remote router changes
// other nodes' caches, so it takes the timed path; a drain into the
// private DRAM changes only timing state, which is discarded.
func (n *Node) primeWrite(a access.Addr, nb units.Bytes, now units.Time) units.Time {
	if n.backend != nil || n.remoteAddr(a) && n.remoteWr != nil {
		return n.memWrite(a, nb, now)
	}
	return now
}

// noteStore advances the contiguous store-run detector past a store
// at a.
func (n *Node) noteStore(a access.Addr) {
	if a == n.storeRunNext {
		n.storeRunLen++
	} else {
		n.storeRunLen = 1
	}
	n.storeRunNext = a + access.Addr(units.Word)
}

// combines reports whether a write-allocate miss at level k skips its
// fetch: a write-combining node's detected contiguous store run
// covers the whole line.
func (n *Node) combines(k int) bool {
	return n.cfg.WB.WriteCombine &&
		n.storeRunLen >= n.cfg.Levels[k].Cache.LineSize.Words()
}

// resolveStore propagates a store down the hierarchy and returns the
// stall charged to the processor.
func (n *Node) resolveStore(a access.Addr, now units.Time) units.Time {
	n.noteStore(a)
	for k := 0; k < len(n.caches); k++ {
		r := n.caches[k].Access(a, true)
		if r.HasWriteBack() {
			n.writeVictim(k, r.WriteBack(), now)
		}
		switch {
		case r.Hit && !r.WriteThrough:
			// Retired into a write-back level.
			return 0
		case r.Hit && r.WriteThrough:
			// Write-through hit: continue to the next level.
		case r.Filled:
			// Write-allocate miss: the line must be fetched from
			// below before the store's line can retire; the
			// processor stalls only if the fetch backlog exceeds
			// the miss-queue slack. A write-combining node skips
			// the fetch for contiguous runs covering whole lines.
			if n.combines(k) {
				return 0
			}
			ready := n.fillFrom(k+1, a, now)
			return n.storeSlackStall(now, ready)
		default:
			// Non-allocating miss: propagate to the next level.
		}
	}
	// Fell out of all cache levels: retire through the write buffer
	// into DRAM.
	return n.wb.Push(a, now, n.dramWriteTarget())
}

// storeSlackStall converts a write-allocate fetch completion into a
// processor stall, allowing SlackEntries outstanding fetches.
func (n *Node) storeSlackStall(now, ready units.Time) units.Time {
	slack := units.Time(n.cfg.WB.SlackEntries) * n.cfg.DRAM.WriteWordOcc
	if ready <= now+slack {
		return 0
	}
	return ready - now - slack
}

// writeVictim charges the write path below level k for absorbing a
// dirty victim line evicted from level k, and marks the absorbing
// level dirty so the data eventually reaches memory.
func (n *Node) writeVictim(k int, lineAddr access.Addr, now units.Time) {
	if k+1 < len(n.caches) {
		spec := &n.cfg.Levels[k+1]
		// The victim write occupies the fill path but nothing waits
		// on it; the start time is deliberately dropped.
		_ = n.fills[k+1].Acquire(now, spec.WriteOcc)
		if !n.caches[k+1].SetDirty(lineAddr) {
			// Not resident below (exclusion): the victim continues
			// toward memory.
			n.writeVictim(k+1, lineAddr, now)
		}
		return
	}
	// Victim leaves the deepest cache: write to memory. The write
	// drains in the background; its completion time is deliberately
	// dropped (the occupancy has been charged to the port and DRAM).
	_ = n.memWrite(lineAddr, units.Bytes(n.cfg.Levels[k].Cache.LineSize), now)
}

// dramWriteTarget is the drain target of the write buffer: entries
// drain into the memory write path.
func (n *Node) dramWriteTarget() cache.DrainTarget {
	return func(a access.Addr, nb units.Bytes, now units.Time) units.Time {
		return n.memWrite(a, nb, now)
	}
}

// memWrite routes a memory write through the backend when attached,
// through the remote router for foreign addresses, else through the
// private DRAM write path.
func (n *Node) memWrite(a access.Addr, nb units.Bytes, now units.Time) units.Time {
	if n.backend != nil {
		// Outgoing writes cross the node's board interface too.
		d := &n.cfg.DRAM
		perByte := d.WriteSeqOcc.PerByte(d.LineBytes)
		occ := d.WriteWordOcc
		if n.engWriteOK && a == n.engWrite {
			occ = perByte.ByteCost(nb)
		}
		n.engWrite = a + access.Addr(nb)
		n.engWriteOK = true
		start := n.port.Acquire(now, occ)
		done := n.backend.Write(n.ID, a, nb, start)
		if start+occ > done {
			done = start + occ
		}
		n.dramWriteTime.Add(occ)
		if t := n.ps.Tracer(); t != nil {
			t.Span("dram.write", "mem", n.ps.TID(), start, done)
		}
		return done
	}
	if n.remoteAddr(a) && n.remoteWr != nil {
		done := n.remoteWr(a, nb, now)
		if t := n.ps.Tracer(); t != nil {
			t.Span("remote.write", "net", n.ps.TID(), now, done)
		}
		return done
	}
	return n.dramWrite(a, nb, now)
}

// dramWrite charges the write channel and banks for a write of nb
// bytes at a (write-buffer drains, victim write-backs, incoming
// engine deposits). Sequential runs stream at WriteSeqOcc per line
// (scaled to the written size) and saturate the channel; an isolated
// write releases the channel after the fixed WriteWordOcc — the data
// drains from the write buffers into the banks, whose occupancy is
// charged separately.
func (n *Node) dramWrite(a access.Addr, nb units.Bytes, now units.Time) units.Time {
	d := &n.cfg.DRAM
	perByte := d.WriteSeqOcc.PerByte(d.LineBytes)
	var occ units.Time
	sequential := n.engWriteOK && a == n.engWrite
	if sequential {
		occ = perByte.ByteCost(nb)
	} else {
		occ = d.WriteWordOcc
	}
	if d.Stream.WriteInterrupts {
		n.det.Interrupt()
	}
	n.engWrite = a + access.Addr(nb)
	n.engWriteOK = true
	ch := &n.port
	if d.SplitRW {
		ch = &n.writePort
	}
	start := ch.Acquire(now, occ)
	bankDone := n.banks.Access(a, 0, start)
	done := start + occ
	if bankDone > done {
		done = bankDone
	}
	n.dramWriteTime.Add(occ)
	if t := n.ps.Tracer(); t != nil {
		t.Span("dram.write", "mem", n.ps.TID(), start, done)
	}
	return done
}
