package cache

import (
	"repro/internal/access"
	"repro/internal/probe"
	"repro/internal/units"
)

// WriteBuffer models the Cray T3D's on-chip write-back queue, which
// "buffers the high rate processor writes and coalesces them into 32
// byte entities if they are contiguous" (§3.2). The same structure
// (with different parameters) models the 21164's write buffer on the
// DEC 8400 and T3E nodes.
//
// Entries drain into a downstream write path (local DRAM or, for
// remote deposits on the T3D, the network interface). A store stalls
// the processor only when all entries are outstanding.
type WriteBuffer struct {
	// Entries is the number of outstanding buffer slots.
	Entries int
	// EntryBytes is the coalescing width (32 bytes on the T3D).
	EntryBytes units.Bytes

	// open coalescing window
	openValid bool
	openBase  access.Addr
	openEnd   access.Addr

	// completion times of in-flight drains
	inflight []units.Time

	// Drained counts entries pushed downstream; DrainedBytes the
	// bytes they carried. The handles may be left zero (detached) by
	// callers that do not observe drain counts; the node model wires
	// them into its probe registry.
	Drained      probe.Counter
	DrainedBytes probe.ByteCounter
}

// DrainTarget is the downstream path a write-buffer entry drains
// into: a function that performs the write of n bytes at address a
// starting no earlier than now and returns its completion time (the
// node's DRAM write path, or — on a shared-memory machine — the bus).
type DrainTarget func(a access.Addr, n units.Bytes, now units.Time) units.Time

// Push enqueues a store of one 64-bit word at address a issued at
// time now. It returns the stall time charged to the processor (zero
// unless the buffer is full) — stores normally retire into the buffer
// immediately.
func (w *WriteBuffer) Push(a access.Addr, now units.Time, t DrainTarget) units.Time {
	if w.openValid && a == w.openEnd && w.openEnd-w.openBase < access.Addr(w.EntryBytes) {
		// Contiguous store coalesces into the open entry.
		w.openEnd += access.Addr(units.Word)
		if w.openEnd-w.openBase == access.Addr(w.EntryBytes) {
			return w.closeOpen(now, t)
		}
		return 0
	}
	var stall units.Time
	if w.openValid {
		stall = w.closeOpen(now, t)
	}
	w.openValid = true
	w.openBase = a
	w.openEnd = a + access.Addr(units.Word)
	return stall
}

// closeOpen sends the open entry downstream, stalling if all slots
// are busy.
func (w *WriteBuffer) closeOpen(now units.Time, t DrainTarget) units.Time {
	n := units.Bytes(w.openEnd - w.openBase)
	base := w.openBase
	w.openValid = false
	w.Drained.Inc()
	w.DrainedBytes.Add(n)

	var stall units.Time
	// Find a free slot; if none, wait for the earliest completion.
	if len(w.inflight) >= w.Entries && w.Entries > 0 {
		earliest, first := 0, w.inflight[0]
		for i, c := range w.inflight {
			if c < first {
				earliest, first = i, c
			}
		}
		if first > now {
			stall = first - now
		}
		w.inflight[earliest] = w.inflight[len(w.inflight)-1]
		w.inflight = w.inflight[:len(w.inflight)-1]
	}
	w.inflight = append(w.inflight, t(base, n, now+stall))
	return stall
}

// Flush closes any open entry and returns the time at which all
// in-flight drains complete (>= now). Synchronization points flush
// the write path before signalling.
func (w *WriteBuffer) Flush(now units.Time, t DrainTarget) units.Time {
	if w.openValid {
		now += w.closeOpen(now, t)
	}
	done := now
	for _, c := range w.inflight {
		if c > done {
			done = c
		}
	}
	w.inflight = w.inflight[:0]
	return done
}

// Reset clears all buffered state between benchmark passes. The open
// window's base and end are guarded by openValid, but they are zeroed
// anyway so two cold starts are bit-identical.
func (w *WriteBuffer) Reset() {
	w.openValid = false
	w.openBase = 0
	w.openEnd = 0
	w.inflight = w.inflight[:0]
	w.Drained.Reset()
	w.DrainedBytes.Reset()
}
