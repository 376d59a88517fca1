package machine

import (
	"repro/internal/access"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/stream"
	"repro/internal/units"
)

// SMP is the DEC 8400: a bus-based, cache-coherent symmetric
// multiprocessor (§3.1).
type SMP struct {
	name  string
	nodes []*node.Node
	coh   *coherence.Controller
	probe *probe.Probe
	cal   Calibration
}

// NewDEC8400 builds an n-processor DEC 8400 (the paper used n=4; the
// machine tops out at 12, §8).
func NewDEC8400(n int) *SMP {
	if n < 1 {
		n = 1
	}
	p := probe.New()
	// The shared DRAM: four memory modules, two-way interleaved each
	// (§3.1: "with four memory modules, a maximal interleaving of 8
	// is possible"). Modelled as a cache-less timing node.
	memSpec := node.DRAMSpec{
		Banks:           8,
		InterleaveBytes: 64,
		RowBytes:        2 * units.KB,
		LineBytes:       64,
		// The shared, 8-way interleaved memory has roughly four
		// single-processor streams of aggregate capacity (the
		// per-processor plateaus of Figure 1 are bound by the
		// board interface in the node config, not here): §5.1
		// measures only 8%/25% degradation with four
		// processors hammering DRAM.
		SeqOcc:         112,
		SeqOccNoStream: 112,
		WordOcc:        95,
		WriteSeqOcc:    107,
		WriteWordOcc:   30,
		// Bank occupancy sized so that four interleaved strided
		// miss streams saturate gently (§5.1's ~25%).
		BankOcc:    60,
		RowPenalty: 20,
		Stream:     stream.Config{Enabled: true, Streams: 8, Threshold: 2, LineBytes: 64},
	}
	mem := node.New(-1, node.Config{
		Probe: p.Scope("mem").WithTid(tidMem),
		CPU:   cpu.Config{Clock: units.Clock{MHz: 75}}, // bus clock domain
		DRAM:  memSpec,
	})

	busCfg := bus.Config{
		Name:  "8400 system bus",
		Probe: p.Scope("bus").WithTid(tidBus),
		// 256-bit data path at 75 MHz; 1.6 GB/s burst (§3.1): a
		// 64-byte line crosses in 40 ns.
		// Address/snoop phases are short (pipelined on the 75 MHz
		// bus); four processors' miss streams fit (§5.1's mild
		// degradation).
		Arb:     8,
		Snoop:   12,
		LineOcc: 35,
		WordOcc: 18,
		// Cache-to-cache intervention: 64 B / (8+12+440) ns =
		// 139 MB/s, the remote pull ceiling of Figure 2 ("down to
		// 140 MByte/s", §5.2).
		C2COcc: 440,
	}
	b := bus.New(busCfg)
	coh := coherence.New(b, mem, p.Scope("coh").WithTid(tidCoh))

	m := &SMP{name: "DEC 8400", coh: coh, probe: p}
	for i := 0; i < n; i++ {
		cfg := dec8400Node()
		cfg.Probe = nodeScope(p, i)
		nd := node.New(i, cfg)
		nd.SetBackend(coh)
		m.nodes = append(m.nodes, nd)
	}
	coh.Attach(m.nodes)

	cpuC, levels, dr, wb := nodeCal(dec8400Node())
	m.cal = Calibration{
		Machine: m.name, Kind: "smp", NumNodes: n,
		CPU: cpuC, Levels: levels, DRAM: dr, WB: wb,
		HasBus: true, Bus: busCal(busCfg), Mem: dramCal(memSpec),
		ConsumeBufBytes: consumeBuf,
	}
	return m
}

// Calibration implements Machine.
func (m *SMP) Calibration() Calibration { return m.cal }

// dec8400Node configures one 21164 processor board of the 8400.
func dec8400Node() node.Config {
	c := cpu.EV5()
	// The vendor DXML 1D-FFT sustains ~0.55 useful flops/cycle on
	// the 8400 node (calibrated to Figure 16's ~550 MFlop/s local
	// computation on 4 processors at 256^2).
	c.FlopsPerCycle = 0.55
	return node.Config{
		CPU: c,
		Levels: []node.LevelSpec{
			{
				// 8 KB direct-mapped write-through data cache on
				// chip, 2-clock latency (§3.1).
				Cache: cache.Config{Name: "L1", Size: 8 * units.KB, LineSize: 32,
					Assoc: 1, Write: cache.WriteThrough, Alloc: cache.ReadAllocate},
			},
			{
				// 96 KB 3-way unified write-back on chip (§3.1).
				// 32 B / 45.7 ns and 8 B / 11.4 ns give the ~700
				// MB/s L2 plateau of Figure 1 for contiguous and
				// strided accesses alike (on-chip, no line-fill
				// exposure).
				Cache: cache.Config{Name: "L2", Size: 96 * units.KB, LineSize: 32,
					Assoc: 3, Write: cache.WriteBack, Alloc: cache.ReadWriteAllocate, Shared: true},
				FillOcc:  45.7,
				WordOcc:  11.4,
				WriteOcc: 11.4,
			},
			{
				// 4 MB board-level write-back SRAM, 10 ns chips,
				// 915 MB/s specified (§3.1). 64 B / 106 ns = 600
				// MB/s contiguous; isolated strided fills restart
				// at 66 ns (8 B / 66 ns = 121 MB/s) because the L2
				// "read-allocates the whole cache line although
				// only a single word is used" (§5.1).
				Cache: cache.Config{Name: "L3", Size: 4 * units.MB, LineSize: 64,
					Assoc: 1, Write: cache.WriteBack, Alloc: cache.ReadWriteAllocate},
				FillOcc:  106,
				WordOcc:  66,
				WriteOcc: 33,
			},
		},
		DRAM: node.DRAMSpec{
			// The board interface onto the system bus: this is what
			// limits a single processor's DRAM bandwidth (426 ns per
			// 64 B line -> 150 MB/s contiguous; 285 ns per isolated
			// word -> 28 MB/s strided). The shared memory behind the
			// coherence backend has ~4x the aggregate capacity, so
			// four processors degrade each other only mildly (§5.1).
			LineBytes:      64,
			SeqOcc:         426,
			SeqOccNoStream: 426,
			WordOcc:        285,
			WriteSeqOcc:    270,
			WriteWordOcc:   100,
			Stream: stream.Config{Enabled: true, Streams: 4,
				Threshold: 2, LineBytes: 64},
		},
		WB: node.WriteBufferSpec{Entries: 6, EntryBytes: 32, SlackEntries: 4},
	}
}

// Name implements Machine.
func (m *SMP) Name() string { return m.name }

// NumNodes implements Machine.
func (m *SMP) NumNodes() int { return len(m.nodes) }

// Node implements Machine.
func (m *SMP) Node(i int) *node.Node { return m.nodes[i] }

// Coherence exposes the controller (for stats and tests).
func (m *SMP) Coherence() *coherence.Controller { return m.coh }

// Probe implements Machine.
func (m *SMP) Probe() *probe.Probe { return m.probe }

// ResetTiming implements Machine.
func (m *SMP) ResetTiming() {
	resetNodes(m.nodes)
	m.coh.Reset()
	// A fresh measurement pass starts with a clean slate: every
	// registered counter back to zero and the trace ring rewound.
	m.probe.Reset()
}

// ColdReset implements Machine.
func (m *SMP) ColdReset() {
	coldNodes(m.nodes)
	m.coh.Reset()
	m.probe.Reset()
}

// primeStores walks nd's store loop over the cursor's remaining
// accesses tag-only, then drains the write buffer. It serves the
// landing-buffer prime and the producer's walk, whose timing the
// ResetTiming before the pull discards.
func primeStores(nd *node.Node, c *access.Cursor) {
	for {
		start, step, count, _, ok := c.Run(1 << 62)
		if !ok {
			break
		}
		nd.PrimeStoreRun(start, step, count)
	}
	nd.FlushWrites()
}

// consumeBuf is the size of the consumer's cache-resident landing
// buffer: a pull transfer delivers data into the consumer's working
// zone (its caches), where the next computation phase consumes it —
// the copy-transfer model's destination zone for a fetch (§4.1).
const consumeBuf = 256 * units.KB

// Transfer implements Machine. On a shared-memory machine a remote
// transfer is a pull: the producer has written the data, and the
// consumer's loads miss to the bus, where the coherence protocol
// finds the freshest copy — from the producer's caches
// (cache-to-cache) or from the shared DRAM (§5.2). Deposit is
// unsupported ("the DEC 8400 does not have support for pushing data
// into memory or caches of a remote processor").
//
// Non-pipelined, the producer writes the whole working set before the
// synchronization point, so only its most recent 4 MB is still dirty
// in cache and the rest is pulled from DRAM (the working-set tiers of
// Figure 2). Pipelined, producer and consumer proceed chunk by chunk,
// every pull finding its data hot — the blocked, cache-to-cache
// communication the paper recommends investigating (§6.2).
func (m *SMP) Transfer(src, dst int, cp access.CopyPattern, opt Options) (units.Time, error) {
	if opt.Mode != Fetch {
		return 0, ErrUnsupported
	}
	chunk := cp.WorkingSet
	if opt.Pipelined {
		chunk = opt.ChunkBytes
		if chunk <= 0 {
			chunk = units.MB
		}
		if chunk > cp.WorkingSet {
			chunk = cp.WorkingSet
		}
	}

	producer := m.nodes[src]
	consumer := m.nodes[dst]

	// Prime the consumer's landing buffer so it is cache resident.
	dstWS := cp.WorkingSet
	if dstWS > consumeBuf {
		dstWS = consumeBuf
	}
	primeDst := access.NewCursor(access.Pattern{Base: cp.DstBase, WorkingSet: dstWS, Stride: 1})
	primeStores(consumer, primeDst)

	var total units.Time
	for off := units.Bytes(0); off < cp.WorkingSet; off += chunk {
		n := chunk
		if cp.WorkingSet-off < n {
			n = cp.WorkingSet - off
		}
		// The producer generates this chunk (contiguous stores).
		prod := access.NewCursor(access.Pattern{
			Base: cp.SrcBase + access.Addr(off), WorkingSet: n, Stride: 1})
		primeStores(producer, prod)

		// Synchronization point, then the consumer pulls; only the
		// consumer's time is the transfer time (§5.2: "we measure
		// the transfer bandwidth of the second processor while it
		// is pulling the data over"). The landing buffer is smaller
		// than the pulled chunk, so the store cursor wraps: each
		// load run is partitioned into store runs, restarting the
		// store cursor whenever it is exhausted. Segment overhead is
		// charged for load segments only, as the per-word loop did.
		m.ResetTiming()
		load := access.NewCursor(access.Pattern{
			Base: cp.SrcBase + access.Addr(off), WorkingSet: n, Stride: cp.LoadStride,
			NoWrap: cp.LoadNoWrap})
		store := access.NewCursor(access.Pattern{
			Base: cp.DstBase, WorkingSet: dstWS, Stride: cp.StoreStride})
		for {
			la, lstep, lcount, lseg, lok := load.Run(1 << 62)
			if !lok {
				break
			}
			for done := int64(0); done < lcount; {
				sa, sstep, scount, _, sok := store.Run(lcount - done)
				if !sok {
					store.Reset()
					continue
				}
				if lseg && done == 0 {
					consumer.SegmentStart()
				}
				consumer.CopyRun(la+access.Addr(done*lstep), lstep, sa, sstep, scount)
				done += scount
			}
		}
		consumer.FlushWrites()
		total += consumer.Now()
	}
	return total, nil
}
