package node

import (
	"repro/internal/access"
	"repro/internal/units"
)

// EngineWrite models the node's fetch/deposit support circuitry
// storing nb bytes of incoming remote data at address a "without
// involvement of the processor at the receiver node" (§3.2). The
// affected cache lines are invalidated line by line, and the DRAM
// write path is charged. It returns the completion time.
func (n *Node) EngineWrite(a access.Addr, nb units.Bytes, now units.Time) units.Time {
	last := a + access.Addr(nb) - 1
	lineBytes := access.Addr(64)
	if len(n.caches) > 0 {
		lineBytes = access.Addr(n.cfg.Levels[0].Cache.LineSize)
	}
	for l := a &^ (lineBytes - 1); l <= last; l += lineBytes {
		n.InvalidateLine(l)
	}
	n.engineWrites.Inc()
	return n.dramWrite(a, nb, now)
}

// EngineRead models the support circuitry reading nb bytes at a from
// local DRAM on behalf of a remote fetch (or an outgoing block
// transfer). It returns when the data has been read.
//
// Reads issued by the engines do not serialize on individual banks:
// with hundreds of outstanding element reads (512 E-registers on the
// T3E, the T3D's prefetch queue) the circuitry reorders around busy
// banks, so only the channel occupancy binds. Writes (EngineWrite)
// must commit in place and do pay bank conflicts — that asymmetry is
// why the paper sees ripples in the deposit figures but recommends
// fetches for even strides on the T3E (§5.6).
func (n *Node) EngineRead(a access.Addr, nb units.Bytes, now units.Time) units.Time {
	d := &n.cfg.DRAM
	var occ units.Time
	if n.engReadOK && a == n.engRead {
		occ = d.SeqOcc
		if nb < d.LineBytes {
			occ = d.SeqOcc.ByteCost(nb).PerByte(d.LineBytes)
		}
	} else if d.EngineWordOcc > 0 {
		occ = d.EngineWordOcc * units.Time(nb.CeilWords())
	} else {
		occ = d.WordOcc
	}
	n.engRead = a + access.Addr(nb)
	n.engReadOK = true
	n.engineReads.Inc()
	start := n.port.Acquire(now, occ)
	return start + occ
}
