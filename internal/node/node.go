// Package node composes a processing element from the simulator's
// components: a CPU issue model, one to three cache levels, a write
// buffer, a stream detector, and a banked DRAM system. It produces
// the *local* memory-system timing of one node of the DEC 8400, Cray
// T3D, or Cray T3E; the remote paths (bus coherence, torus deposits
// and fetches, E-register transfers) are layered on top of the
// engine-side entry points by internal/machine.
//
// The timing discipline: a benchmark loop calls LoadWord / StoreWord
// / CopyWord for each element in traversal order. Each call advances
// the node's clock by the CPU issue slot plus any stall that the
// memory system exposes beyond the compiled loop's latency-hiding
// window. Plateaus emerge from pipelined resource occupancies; the
// stride and working-set structure of the paper's figures emerges
// from the genuine cache tag state and bank geometry.
package node

import (
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/units"
)

// LevelSpec configures one cache level and the timing of fills
// *provided by* that level (i.e. the cost of reading this level from
// above).
type LevelSpec struct {
	Cache cache.Config
	// FillOcc is the pipelined per-line occupancy when this level
	// serves a sequential run of line fills.
	FillOcc units.Time
	// WordOcc is the per-access occupancy when this level serves an
	// isolated (non-sequential) fill — critical-word-first service.
	WordOcc units.Time
	// WriteOcc is the occupancy of absorbing a victim write-back
	// from the level above.
	WriteOcc units.Time
}

// DRAMSpec configures the node's main memory timing.
type DRAMSpec struct {
	// Banks / InterleaveBytes / RowBytes describe the bank geometry
	// (conflict and page texture).
	Banks           int
	InterleaveBytes units.Bytes
	RowBytes        units.Bytes
	// LineBytes is the fill granularity between the deepest cache
	// and DRAM.
	LineBytes units.Bytes

	// SeqOcc is the per-line channel occupancy for sequential fills
	// once the stream hardware is established.
	SeqOcc units.Time
	// SeqOccNoStream is the per-line occupancy of sequential fills
	// without established streaming (training, or streams disabled —
	// the T3E "test vehicle" ablation, §5.5 footnote).
	SeqOccNoStream units.Time
	// WordOcc is the per-access occupancy of isolated reads.
	WordOcc units.Time
	// WriteSeqOcc / WriteWordOcc are the corresponding write-side
	// occupancies (write-buffer drains, victim write-backs, incoming
	// remote deposits).
	WriteSeqOcc  units.Time
	WriteWordOcc units.Time
	// EngineWordOcc is the per-word occupancy of isolated reads
	// issued by the remote-support circuitry (E-registers, deposit
	// engine). It is lower than WordOcc because the engines keep
	// hundreds of accesses in flight and bypass the processor's
	// miss path; zero defaults to WordOcc.
	EngineWordOcc units.Time
	// BankOcc is the occupancy charged on the selected bank per
	// line-sized operation; bank conflicts serialize on it.
	BankOcc units.Time
	// RowPenalty is added to the bank occupancy on a row (DRAM page)
	// change.
	RowPenalty units.Time
	// SplitRW gives writes their own channel (the T3D's "completely
	// different read and write paths", §3.2); otherwise reads and
	// writes share one memory port.
	SplitRW bool

	// Stream configures the sequential-run detector.
	Stream stream.Config
}

// MemBackend resolves memory traffic that misses every cache level,
// when the node's main memory is not private: on the DEC 8400 all
// nodes share the bus-attached DRAM, so fills and writes cross the
// snooping bus (internal/coherence implements this). Nodes without a
// backend (Cray T3D/T3E) use their private DRAM path.
type MemBackend interface {
	// Fill delivers the line of lineBytes at address line to the
	// requesting node and returns when the data arrives.
	Fill(nodeID int, line access.Addr, lineBytes units.Bytes, now units.Time) units.Time
	// Write absorbs nb bytes at address a (write-buffer drains and
	// victim write-backs) and returns the completion time.
	Write(nodeID int, a access.Addr, nb units.Bytes, now units.Time) units.Time
	// Intervenes reports, without side effects, whether a Fill of
	// line by nodeID would change another node's cache state (a
	// dirty holder supplying the line). The tag-only priming pass
	// sends only those fills through Fill.
	Intervenes(nodeID int, line access.Addr) bool
	// OthersDirty reports, without side effects, whether any node
	// other than nodeID holds a dirty line. A priming run asks once,
	// at its start, and skips Intervenes for the whole run on a
	// false answer: while one node runs, the others' caches change
	// only through a Fill's cache-to-cache supply (which cleans the
	// line) and a Write's snoop (which invalidates it), so they gain
	// no dirt until the run ends.
	OthersDirty(nodeID int) bool
}

// WriteBufferSpec configures the store retire path.
type WriteBufferSpec struct {
	Entries    int
	EntryBytes units.Bytes
	// SlackEntries is how many outstanding line-fill equivalents a
	// store can leave behind before the processor stalls (a miss
	// queue depth).
	SlackEntries float64
	// WriteCombine lets a detected contiguous store run that covers
	// whole cache lines allocate without the write-allocate fetch
	// (the T3E's streaming support covers write streams; the DEC
	// 8400 has no such assist and pays the allocate read, which is
	// why its contiguous copies disappoint, §6.1).
	WriteCombine bool
}

// Config assembles a node.
type Config struct {
	CPU    cpu.Config
	Levels []LevelSpec
	DRAM   DRAMSpec
	WB     WriteBufferSpec

	// Probe is the node's registration scope; every component of the
	// node registers its counters under it (node0.l1, node0.dram,
	// node0.wb, ...). A zero scope makes the node build a private
	// probe, so standalone nodes (tests) still count.
	Probe probe.Scope
}

// Node is one processing element with its local memory system.
type Node struct {
	ID  int
	cfg Config

	clock  sim.Clock
	window sim.Window

	caches []*cache.Cache
	fills  []sim.Resource
	// free-ride state: the last provider line filled per level and
	// when it arrived, so a second upper-level miss inside the same
	// provider line rides along instead of double-charging.
	lastLine  []access.Addr
	lastReady []units.Time
	lastValid []bool
	// sequential-fill detection per cache level
	seqNext []access.Addr

	det       *stream.Detector
	banks     *dram.DRAM
	port      sim.Resource // memory read channel (all traffic unless SplitRW)
	writePort sim.Resource // memory write channel when SplitRW
	dramLast  access.Addr  // free-ride + sequential detection for fills
	dramValid bool
	dramReady units.Time
	dramSeq   access.Addr

	wb cache.WriteBuffer
	// engine-side sequence state (remote deposit/fetch circuitry)
	engRead, engWrite access.Addr
	engReadOK         bool
	engWriteOK        bool

	backend MemBackend //simlint:ignore statereset wiring installed once at machine construction

	// remote routing (global address space on the Crays)
	ownerFn  func(access.Addr) int                                          //simlint:ignore statereset wiring installed once at machine construction
	remoteWr func(a access.Addr, nb units.Bytes, now units.Time) units.Time //simlint:ignore statereset wiring installed once at machine construction
	remoteRd func(a access.Addr, nb units.Bytes, now units.Time) units.Time //simlint:ignore statereset wiring installed once at machine construction

	// contiguous store-run detection for write combining
	storeRunNext access.Addr
	storeRunLen  int64

	// ps is the node's probe scope; every counter below registers
	// under it, so ResetTiming can zero the whole node's statistics
	// with one prefix reset.
	ps              probe.Scope
	loads, stores   probe.Counter
	loadStall       probe.TimeCounter
	storeStall      probe.TimeCounter
	issueTime       probe.TimeCounter
	dramFills       probe.Counter
	dramStreamFills probe.Counter
	engineReads     probe.Counter
	engineWrites    probe.Counter

	// attribution counters: busy time charged to each provider level
	// and to the DRAM channels (fillTime[0] is unused — L1 hits are
	// free).
	fillTime      []probe.TimeCounter
	dramFillTime  probe.TimeCounter
	dramWriteTime probe.TimeCounter

	// fillEv[j] is the precomputed trace span name for level-j fills
	// ("l2.fill"), so emission never formats strings.
	fillEv []string
}

// Stats is the comparable view of a node's activity counters. The
// storage lives in the probe registry; Stats is assembled on demand.
type Stats struct {
	Loads, Stores   int64
	LoadStall       units.Time
	StoreStall      units.Time
	DRAMFills       int64
	DRAMStreamFills int64
	EngineReads     int64
	EngineWrites    int64
}

// New builds a node from its configuration.
func New(id int, cfg Config) *Node {
	ps := cfg.Probe
	if !ps.Valid() {
		ps = probe.New().Scope(defaultScopeName(id))
	}
	n := &Node{
		ID:     id,
		cfg:    cfg,
		window: sim.Window{Depth: cfg.CPU.HideDepth},
		ps:     ps,
	}
	n.cfg.DRAM.Stream.Probe = ps.Child("stream")
	n.det = stream.New(n.cfg.DRAM.Stream)
	// Copy the level slice before installing per-level probe scopes:
	// the caller may share one config value across nodes.
	n.cfg.Levels = append([]LevelSpec(nil), cfg.Levels...)
	n.fillTime = make([]probe.TimeCounter, len(cfg.Levels))
	n.fillEv = make([]string, len(cfg.Levels))
	for i, ls := range cfg.Levels {
		lvlName := strings.ToLower(ls.Cache.Name)
		if lvlName == "" {
			lvlName = fmt.Sprintf("l%d", i+1)
		}
		lvl := ps.Child(lvlName)
		n.cfg.Levels[i].Cache.Probe = lvl
		n.caches = append(n.caches, cache.New(n.cfg.Levels[i].Cache))
		n.fillEv[i] = lvlName + ".fill"
		if i > 0 {
			n.fillTime[i] = lvl.TimeCounter("fill_time")
		}
	}
	n.fills = make([]sim.Resource, len(cfg.Levels))
	n.lastLine = make([]access.Addr, len(cfg.Levels))
	n.lastReady = make([]units.Time, len(cfg.Levels))
	n.lastValid = make([]bool, len(cfg.Levels))
	n.seqNext = make([]access.Addr, len(cfg.Levels))
	if cfg.DRAM.LineBytes <= 0 {
		n.cfg.DRAM.LineBytes = 64
	}
	dramScope := ps.Child("dram")
	n.banks = dram.New(dram.Config{
		Name:            "dram",
		Banks:           cfg.DRAM.Banks,
		InterleaveBytes: cfg.DRAM.InterleaveBytes,
		RowBytes:        cfg.DRAM.RowBytes,
		RowHit:          cfg.DRAM.BankOcc,
		RowMiss:         cfg.DRAM.BankOcc + cfg.DRAM.RowPenalty,
		PerByte:         0,
		Probe:           dramScope,
	})
	n.dramFillTime = dramScope.TimeCounter("fill_time")
	n.dramWriteTime = dramScope.TimeCounter("write_time")
	wbScope := ps.Child("wb")
	n.wb = cache.WriteBuffer{
		Entries:      cfg.WB.Entries,
		EntryBytes:   cfg.WB.EntryBytes,
		Drained:      wbScope.Counter("drained"),
		DrainedBytes: wbScope.ByteCounter("drained_bytes"),
	}
	n.loads = ps.Counter("loads")
	n.stores = ps.Counter("stores")
	n.loadStall = ps.TimeCounter("load_stall")
	n.storeStall = ps.TimeCounter("store_stall")
	n.issueTime = ps.TimeCounter("issue_time")
	n.dramFills = ps.Counter("dram_fills")
	n.dramStreamFills = ps.Counter("dram_stream_fills")
	n.engineReads = ps.Counter("engine_reads")
	n.engineWrites = ps.Counter("engine_writes")
	return n
}

// defaultScopeName names the private probe scope of a standalone
// node: "node<i>", or "mem" for the shared-memory pseudo-node id -1.
func defaultScopeName(id int) string {
	if id < 0 {
		return "mem"
	}
	return fmt.Sprintf("node%d", id)
}

// SetBackend attaches a shared-memory backend; fills and writes that
// miss every cache level then go through it instead of the node's
// private DRAM.
func (n *Node) SetBackend(b MemBackend) { n.backend = b }

// SetRemoteRouter attaches a global-address-space router: memory
// traffic whose address owner is another node is redirected to the
// remote write path (deposits captured from the write queue, §3.2)
// or, for loads, the remote read path (transparent blocking remote
// loads). Either function may be nil to forbid that direction.
func (n *Node) SetRemoteRouter(
	owner func(access.Addr) int,
	write func(a access.Addr, nb units.Bytes, now units.Time) units.Time,
	read func(a access.Addr, nb units.Bytes, now units.Time) units.Time,
) {
	n.ownerFn = owner
	n.remoteWr = write
	n.remoteRd = read
}

// remoteAddr reports whether a belongs to another node's memory.
func (n *Node) remoteAddr(a access.Addr) bool {
	return n.ownerFn != nil && n.ownerFn(a) != n.ID
}

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// CPU returns the node's issue model.
func (n *Node) CPU() cpu.Config { return n.cfg.CPU }

// Now returns the node's current simulated time.
func (n *Node) Now() units.Time { return n.clock.Now() }

// AdvanceTo moves the node's clock forward to t (for barriers).
func (n *Node) AdvanceTo(t units.Time) { n.clock.AdvanceTo(t) }

// Advance moves the node's clock forward by d.
func (n *Node) Advance(d units.Time) { n.clock.Advance(d) }

// Stats returns a snapshot of the activity counters.
func (n *Node) Stats() Stats {
	return Stats{
		Loads:           n.loads.Get(),
		Stores:          n.stores.Get(),
		LoadStall:       n.loadStall.Get(),
		StoreStall:      n.storeStall.Get(),
		DRAMFills:       n.dramFills.Get(),
		DRAMStreamFills: n.dramStreamFills.Get(),
		EngineReads:     n.engineReads.Get(),
		EngineWrites:    n.engineWrites.Get(),
	}
}

// Scope returns the node's probe registration scope.
func (n *Node) Scope() probe.Scope { return n.ps }

// CacheStats returns the per-level cache counters.
func (n *Node) CacheStats() []cache.Stats {
	out := make([]cache.Stats, len(n.caches))
	for i, c := range n.caches {
		out[i] = c.Stats()
	}
	return out
}

// DRAMStats returns the bank-level counters.
func (n *Node) DRAMStats() dram.Stats { return n.banks.Stats() }

// ResetTiming clears all occupancy, sequencing, and clock state while
// *keeping cache tag contents* — exactly what the paper's benchmarks
// need between the priming pass and the measured pass ("start with a
// primed cache for exactly that working set", §5).
func (n *Node) ResetTiming() {
	n.clock.Reset()
	for i := range n.fills {
		n.fills[i].Reset()
		n.lastLine[i] = 0
		n.lastReady[i] = 0
		n.lastValid[i] = false
		n.seqNext[i] = 0
	}
	n.port.Reset()
	n.writePort.Reset()
	n.banks.Reset()
	n.det.Reset()
	n.dramLast = 0
	n.dramValid = false
	n.dramReady = 0
	n.dramSeq = 0
	n.wb.Reset()
	n.engRead = 0
	n.engWrite = 0
	n.engReadOK = false
	n.engWriteOK = false
	// One prefix reset replaces the per-component stat zeroing the
	// node used to hand-roll (cache ResetStats, bank ResetStats, the
	// node's own Stats struct): every counter of this node — cache
	// levels, DRAM, write buffer, stream detector, attribution — is
	// registered under n.ps.
	n.ps.Reset()
}

// InvalidateCaches drops every cache line on the node (the T3D's
// whole-cache invalidation at synchronization points, §3.2). It also
// forgets the contiguous store-run used for write combining: a cold
// start must not inherit run state from whatever benchmark ran
// before, or identical grid points would time differently depending
// on sweep order.
func (n *Node) InvalidateCaches() {
	for _, c := range n.caches {
		c.InvalidateAll()
	}
	n.storeRunNext = 0
	n.storeRunLen = 0
}

// InvalidateLine drops the line containing a from all levels (remote
// deposit circuitry storing into local memory, §3.2; bus snooping on
// the 8400).
func (n *Node) InvalidateLine(a access.Addr) {
	for _, c := range n.caches {
		c.Invalidate(a)
	}
}

// CleanLine marks the line containing a clean in every level that
// holds it (after the node supplied the line to a snooping reader).
func (n *Node) CleanLine(a access.Addr) {
	for _, c := range n.caches {
		c.Clean(a)
	}
}

// HoldsDirty reports whether any level caches address a in dirty
// state (used by the 8400 coherence protocol).
func (n *Node) HoldsDirty(a access.Addr) bool {
	for _, c := range n.caches {
		if c.Dirty(a) {
			return true
		}
	}
	return false
}

// HasDirty reports whether any cache level holds a dirty line.
func (n *Node) HasDirty() bool {
	for _, c := range n.caches {
		if c.HasDirty() {
			return true
		}
	}
	return false
}

// Holds reports whether any cache level contains address a.
func (n *Node) Holds(a access.Addr) bool {
	for _, c := range n.caches {
		if c.Contains(a) {
			return true
		}
	}
	return false
}

// SegmentStart charges the benchmark outer-loop restart overhead.
func (n *Node) SegmentStart() {
	ov := n.cfg.CPU.SegmentOverhead()
	n.issueTime.Add(ov)
	n.clock.Advance(ov)
}

// FlushWrites drains the write buffer and advances the clock to the
// completion of all pending stores (synchronization points flush the
// write path before signalling).
func (n *Node) FlushWrites() {
	done := n.wb.Flush(n.clock.Now(), n.dramWriteTarget())
	n.clock.AdvanceTo(done)
}
