// Package remote implements the one-sided transfer engines of the
// Cray machines:
//
//   - T3D deposits: "remote stores are directly captured from the
//     write back queues" (§3.2) — the producer's CPU copy loop runs
//     normally and its write-buffer entries become torus packets.
//   - T3D fetches: remote loads through the "external FIFO pre-fetch
//     queue located in the support circuitry" (§3.2) — a bounded
//     request/response pipeline.
//   - T3E transfers: both directions move through the E-registers in
//     the support circuitry (§3.3), chunked into cache-line blocks
//     when contiguous and into single words when strided.
//
// All engines return the simulated elapsed time of the transfer,
// measured from a common zero after the machine's timing state was
// reset.
package remote

import (
	"repro/internal/access"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/torus"
	"repro/internal/units"
)

// FIFOConfig parameterizes the T3D fetch pipeline.
type FIFOConfig struct {
	// Depth is the number of outstanding prefetch slots.
	Depth int
	// RequestBytes / ResponseBytes are the packet sizes of the
	// address request and the data response.
	RequestBytes  units.Bytes
	ResponseBytes units.Bytes
	// IssueSlot is the consumer's per-element issue cost.
	IssueSlot units.Time
	// Probe is the registration scope for the FIFO's counters; a
	// zero scope leaves them detached.
	Probe probe.Scope
}

// FetchFIFO pulls the words of cp from the src node's memory into the
// dst node's memory through a prefetch FIFO of the given depth,
// returning the elapsed time. Loads are strided per cp.LoadStride on
// the source; stores land per cp.StoreStride at the destination.
//
// The pipeline works in FIFO-depth windows: all requests of a window
// are injected back to back, the source engine reads stream behind
// them, and the responses return while the next window's requests are
// already queuing — the overlap the prefetch queue exists to provide.
func FetchFIFO(net *torus.Network, src, dst *node.Node, cp access.CopyPattern, cfg FIFOConfig) units.Time {
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	windows := cfg.Probe.Counter("windows")
	elements := cfg.Probe.Counter("elements")
	loads := make([]access.Addr, 0, cfg.Depth)
	stores := make([]access.Addr, 0, cfg.Depth)
	reqs := make([]units.Time, cfg.Depth)
	var now, last units.Time

	flush := func() {
		if len(loads) == 0 {
			return
		}
		windows.Inc()
		elements.Add(int64(len(loads)))
		wstart := now
		for i := range loads {
			reqs[i] = net.Send(dst.ID, src.ID, cfg.RequestBytes, now)
			now += cfg.IssueSlot
		}
		var firstDone units.Time
		for i := range loads {
			readDone := src.EngineRead(loads[i], units.Word, reqs[i])
			resp := net.Send(src.ID, dst.ID, cfg.ResponseBytes, readDone)
			done := dst.EngineWrite(stores[i], units.Word, resp)
			if i == 0 {
				firstDone = done
			}
			if done > last {
				last = done
			}
		}
		// The next window's requests need free FIFO slots, which
		// appear once this window's first response has returned.
		if firstDone > now {
			now = firstDone
		}
		if t := cfg.Probe.Tracer(); t != nil {
			t.SpanArg("fifo.window", "net", cfg.Probe.TID(), wstart, last,
				"elements", int64(len(loads)))
		}
		loads = loads[:0]
		stores = stores[:0]
	}

	cp.Walk(func(la, sa access.Addr, _ bool) {
		loads = append(loads, la)
		stores = append(stores, sa)
		if len(loads) == cfg.Depth {
			flush()
		}
	})
	flush()
	if last > now {
		return last
	}
	return now
}

// ERegConfig parameterizes the T3E E-register engine.
type ERegConfig struct {
	// Registers is the number of E-registers (512 on the T3E); it
	// bounds the outstanding element transfers.
	Registers int
	// BlockBytes is the vectorized chunk used when both sides are
	// contiguous.
	BlockBytes units.Bytes
	// IssueSlot is the processor's per-operation cost of launching
	// an E-register get/put.
	IssueSlot units.Time
	// Probe is the registration scope for the engine's counters; a
	// zero scope leaves them detached.
	Probe probe.Scope
}

// Dir is the direction of an E-register transfer.
type Dir int

const (
	// Get pulls data from the remote node (shmem_iget: remote
	// loads).
	Get Dir = iota
	// Put pushes data to the remote node (shmem_iput: remote
	// stores).
	Put
)

// timeRing holds the completion times of the outstanding E-register
// transfers in ascending order, in a ring buffer of one slot per
// register. EReg retires the earliest transfer per issued operation
// once every register is busy. The minimum sits at the head, and a new
// completion is inserted by scanning back from the tail. A new
// completion is nearly always the latest one outstanding, so a
// retire-and-insert is O(1) in practice rather than a walk down a
// heap. Only the minimum is ever consumed, and the ring holds the same
// multiset of times as any other priority queue would, so every timing
// result is exact.
type timeRing struct {
	buf  []units.Time
	head int // index of the minimum
	n    int // times held
}

func newTimeRing(capacity int) timeRing {
	return timeRing{buf: make([]units.Time, capacity)}
}

// full reports whether every slot holds an outstanding time.
func (r *timeRing) full() bool { return r.n == len(r.buf) }

// min returns the earliest outstanding time; the ring must not be
// empty.
func (r *timeRing) min() units.Time { return r.buf[r.head] }

// insert adds t, keeping the ring sorted; the ring must not be full.
// Equal times keep arrival order, which no reader can tell apart.
func (r *timeRing) insert(t units.Time) {
	size := len(r.buf)
	i := r.head + r.n
	if i >= size {
		i -= size
	}
	for k := r.n; k > 0; k-- {
		prev := i - 1
		if prev < 0 {
			prev += size
		}
		if r.buf[prev] <= t {
			break
		}
		r.buf[i] = r.buf[prev]
		i = prev
	}
	r.buf[i] = t
	r.n++
}

// replaceMin retires the minimum and inserts t.
func (r *timeRing) replaceMin(t units.Time) {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	r.insert(t)
}

// EReg moves the words of cp between local and rem through the
// E-registers. For Get, rem is the source (cp.LoadStride applies to
// its memory) and local receives at cp.StoreStride. For Put, local is
// read at cp.LoadStride and rem written at cp.StoreStride. Returns
// the elapsed time.
func EReg(net *torus.Network, local, rem *node.Node, cp access.CopyPattern, dir Dir, cfg ERegConfig) units.Time {
	if cfg.Registers < 1 {
		cfg.Registers = 1
	}
	chunk := units.Word
	if cp.LoadStride <= 1 && cp.StoreStride <= 1 && cfg.BlockBytes > units.Word {
		chunk = cfg.BlockBytes
	}

	srcNode, dstNode := local, rem
	if dir == Get {
		srcNode, dstNode = rem, local
	}

	ops := cfg.Probe.Counter("ops")
	outstanding := newTimeRing(cfg.Registers)
	var now, last units.Time
	issue := func(la, sa access.Addr) {
		// With every register busy, the issue waits for the earliest
		// transfer, whose register the new one then takes over.
		full := outstanding.full()
		if full && outstanding.min() > now {
			now = outstanding.min()
		}
		readDone := srcNode.EngineRead(la, chunk, now+cfg.IssueSlot)
		arrive := net.Send(srcNode.ID, dstNode.ID, chunk, readDone)
		done := dstNode.EngineWrite(sa, chunk, arrive)
		ops.Inc()
		if t := cfg.Probe.Tracer(); t != nil {
			t.SpanArg("ereg.op", "net", cfg.Probe.TID(), now, done, "bytes", int64(chunk))
		}
		if full {
			outstanding.replaceMin(done)
		} else {
			outstanding.insert(done)
		}
		if done > last {
			last = done
		}
		now += cfg.IssueSlot
	}

	if wpc := chunk.Words(); wpc > 1 {
		// Contiguous fast path: with both sides at unit stride the
		// j-th issued operation covers the chunk starting at word
		// j*wpc, so iterate whole chunks directly instead of walking
		// every word and skipping all but each chunk's first. The
		// final partial chunk still issues at full chunk size,
		// exactly as the word walk did.
		nOps := (cp.Words() + wpc - 1) / wpc
		step := access.Addr(chunk)
		la, sa := cp.SrcBase, cp.DstBase
		for j := int64(0); j < nOps; j++ {
			issue(la, sa)
			la += step
			sa += step
		}
	} else {
		cp.Walk(func(la, sa access.Addr, _ bool) { issue(la, sa) })
	}
	if last > now {
		return last
	}
	return now
}

// DepositRouter adapts a torus network into a node.Node remote write
// path: write-buffer entries whose addresses belong to another node
// become torus packets delivered to that node's deposit circuitry.
// It implements the write half of the T3D's global address space.
type DepositRouter struct {
	Net *torus.Network
	// Owner maps an address to its home node id.
	Owner func(access.Addr) int
	// Nodes resolves a node id to its model.
	Nodes []*node.Node
	// HeaderBytes is the per-packet address/routing overhead added
	// to each payload ("both address and data are sent over the
	// network", §3.2).
	HeaderBytes units.Bytes
	// Probe is the registration scope for the router's counters; a
	// zero scope leaves them detached.
	Probe probe.Scope

	// LastDelivery is the completion time of the latest remote
	// write (the transfer is done when the last deposit lands).
	LastDelivery units.Time
	// remoteWrites counts packets routed; lazily bound from Probe on
	// first use so composite-literal construction keeps working.
	remoteWrites probe.Counter
	bound        bool
}

// NewDepositRouter builds a deposit router with its counters
// registered under ps.
func NewDepositRouter(net *torus.Network, owner func(access.Addr) int,
	nodes []*node.Node, headerBytes units.Bytes, ps probe.Scope) *DepositRouter {
	d := &DepositRouter{Net: net, Owner: owner, Nodes: nodes,
		HeaderBytes: headerBytes, Probe: ps}
	d.bind()
	return d
}

func (d *DepositRouter) bind() {
	if !d.Probe.Valid() {
		d.Probe = probe.New().Scope("deposit")
	}
	d.remoteWrites = d.Probe.Counter("remote_writes")
	d.bound = true
}

// RemoteWrites returns the number of packets routed remotely.
func (d *DepositRouter) RemoteWrites() int64 { return d.remoteWrites.Get() }

// Reset clears the router's delivery tracking and counters between
// measurements.
func (d *DepositRouter) Reset() {
	d.LastDelivery = 0
	// Rebinding is idempotent; doing it here keeps the counter
	// handles attached even for literal-constructed routers.
	d.bind()
	d.Probe.Reset()
}

// Write delivers nb bytes at global address a from node src, routing
// remotely when a is not local. Remote deposits are fire-and-forget:
// the returned time is when the packet left the source NI (freeing
// the write-queue slot); the full delivery is tracked in
// LastDelivery for end-of-transfer synchronization.
func (d *DepositRouter) Write(src *node.Node, a access.Addr, nb units.Bytes, now units.Time) units.Time {
	if !d.bound {
		d.bind()
	}
	home := d.Owner(a)
	if home == src.ID {
		return src.EngineWrite(a, nb, now)
	}
	arrive := d.Net.Send(src.ID, home, nb+d.HeaderBytes, now)
	done := d.Nodes[home].EngineWrite(a, nb, arrive)
	if done > d.LastDelivery {
		d.LastDelivery = done
	}
	d.remoteWrites.Inc()
	if t := d.Probe.Tracer(); t != nil {
		t.InstantArg("deposit.remote", "net", int32(home), arrive, "bytes", int64(nb))
	}
	injected := d.Net.NIBusyUntil(src.ID, now)
	if injected < now {
		injected = now
	}
	return injected
}
