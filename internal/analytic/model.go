// Package analytic is the closed-form fast path of the simulator: an
// ECM-style bandwidth model (execution-cache-memory decomposition)
// that predicts the plateau bandwidth of every (working set, stride)
// grid cell directly from a machine's exported calibration constants,
// without simulating a single access.
//
// The model mirrors the mechanistic simulator's resource accounting:
// a measurement's elapsed time is the maximum of the processor's
// issue stream (slot per element plus segment overhead at loop
// restarts) and the busiest memory-system resource (cache fill path,
// DRAM channel, bus, network interface), each charged its per-word
// occupancy for the steady-state access pattern. That maximum is the
// ECM composition rule; the per-resource occupancies come from the
// same calibration table the simulator runs on, so the model and the
// simulator agree wherever throughput is resource-bound and diverge
// only where transient state matters (regime boundaries, partial
// cache survival, bank ripples at near-conflict strides) — exactly
// the cells the pruned sweep keeps simulating.
package analytic

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/units"
)

// MeasureWords mirrors bench's measured-pass cap: a load measurement
// walks at most this many elements of the pattern. bench asserts the
// two constants stay equal.
const MeasureWords = 128 << 10

// TransferCap mirrors bench's remote-transfer truncation: working
// sets above it are sampled at this size.
const TransferCap = 16 * units.MB

// Model predicts bandwidths for one machine calibration.
type Model struct {
	cal machine.Calibration
}

// New builds a model over the calibration.
func New(cal machine.Calibration) *Model { return &Model{cal: cal} }

// Regime names the hierarchy level that serves a working set: the
// smallest cache that holds it, or "DRAM". It is the row classifier
// of the validation report and the divergence table.
func (m *Model) Regime(ws units.Bytes) string {
	lvl := m.providerLevel(ws)
	if lvl < len(m.cal.Levels) {
		return m.cal.Levels[lvl].Name
	}
	return "DRAM"
}

// providerLevel returns the index of the smallest cache level that
// holds ws (primed-cache semantics: a working set that fits stays
// resident), or len(Levels) for DRAM.
func (m *Model) providerLevel(ws units.Bytes) int {
	for i, l := range m.cal.Levels {
		if ws <= l.Size {
			return i
		}
	}
	return len(m.cal.Levels)
}

// LoadBW predicts the Load Sum bandwidth at one grid cell.
func (m *Model) LoadBW(ws units.Bytes, stride int) units.BytesPerSec {
	words, elapsed := m.loadElapsed(ws, stride)
	return units.BW(units.Bytes(words)*units.Word, elapsed)
}

// loadElapsed composes the measured pass: W elements issue at the
// load slot with segment overhead at each strided-loop restart, and
// the memory system constrains the elapsed time from below.
//
//   - L1 working sets: every access hits; issue alone bounds.
//   - step at or below the miss granularity (the line size of the
//     level right above the provider): the walk reaches the provider
//     in address order and the sequential-cursor blend of seqWalkOcc
//     is the per-element resource charge.
//   - wider steps touch every upper line `touches` times, once per
//     stride coset. When a higher cache can hold the lines of one
//     inter-touch window (absorber), only first touches reach the
//     provider; they arrive scattered across cosets, so each pays the
//     provider's isolated word charge, and each repeat pays the
//     absorbing level's own blend. The elapsed time is the maximum of
//     the two resources' busy sums and the issue stream extended by
//     the miss latency the unrolling window cannot hide (the window
//     overlaps one inter-miss gap of issue slots). On the bus machine
//     the memory round trip is several windows deep, so the misses
//     and the repeats' cache occupancy serialize instead — the busy
//     sums add.
//   - when no cache absorbs the repeats, every touch reaches the
//     provider in coset order and the blend charges each one.
//
// Bank occupancies never bind for loads on these calibrations — the
// word channel is always slower than a conflicted bank — so the model
// omits them (the validation report calls this out).
func (m *Model) loadElapsed(ws units.Bytes, stride int) (int64, units.Time) {
	total := ws.Words()
	w := total
	if w > MeasureWords {
		w = MeasureWords
	}
	segs := segmentsVisited(total, int64(stride), w)
	issue := m.cal.CPU.LoadSlot.Scale(float64(w)) +
		m.cal.CPU.SegmentOverhead.Scale(float64(segs))
	lvl := m.providerLevel(ws)
	if lvl == 0 {
		return w, issue
	}
	step := units.Bytes(stride) * units.Word
	gran := m.granularity(lvl)
	touches := int(gran / units.Word)
	if step <= gran || touches <= 1 {
		return w, maxTime(issue, m.seqWalkOcc(lvl, step).Scale(float64(w)))
	}
	a, missFrac, ok := m.absorber(lvl, ws, step, stride, touches)
	if !ok {
		return w, maxTime(issue, m.seqWalkOcc(lvl, step).Scale(float64(w)))
	}
	misses := float64(w) * missFrac
	repeats := float64(w) - misses
	var repeatOcc units.Time
	if a > 0 {
		repeatOcc = m.seqWalkOcc(a, step)
	}
	scatter := m.scatterOcc(lvl)
	if m.cal.HasBus && lvl == len(m.cal.Levels) {
		// Shared-memory fill: port, bus, and memory node chain to a
		// latency far beyond the unrolling window, so every miss
		// drains it and the repeats' cache fills run after the stall.
		res := scatter.Scale(misses) + repeatOcc.Scale(repeats)
		return w, maxTime(issue, res)
	}
	// Misses recur every touches/gcd(touches,stride) elements; the
	// window hides that many issue slots of each miss's latency.
	spacing := float64(touches / gcd(touches, stride))
	stall := scatter - m.cal.CPU.LoadSlot.Scale(spacing)
	if stall < 0 {
		stall = 0
	}
	return w, maxTime(
		issue+stall.Scale(misses),
		scatter.Scale(misses),
		repeatOcc.Scale(repeats),
	)
}

// granularity is the line size of the level directly above the
// provider — the granularity at which misses reach it.
func (m *Model) granularity(lvl int) units.Bytes {
	u := lvl - 1
	if u >= len(m.cal.Levels) {
		u = len(m.cal.Levels) - 1
	}
	return m.cal.Levels[u].LineBytes
}

// absorber finds the smallest cache level above lvl that can hold the
// lines of one inter-touch window of a strided walk — the ws/step
// addresses visited between two touches of the same upper line — and
// returns that level with the provider miss fraction it implies:
// 1/touches when every repeat hits, more when direct-mapped wrapping
// evicts part of the reuse window. Three ways a level fails:
//
//   - footprint: the window's lines outgrow the level (set-associative
//     LRU tolerates a small overshoot — the replacement victim is
//     usually another coset's dead line);
//   - set fold: a stride sharing a large power-of-two factor with the
//     set span piles the window onto few sets;
//   - wrap partners: in a direct-mapped cache smaller than the working
//     set, the lines ws/2 away land on the same sets. The partner's
//     touches trail the line's own by (size/wordsize) mod stride
//     elements — inside the reuse window (one touch per coset, touches
//     cosets wide) they evict it and the repeats miss again.
func (m *Model) absorber(lvl int, ws, step units.Bytes, stride, touches int) (int, float64, bool) {
	full := 1 / float64(touches)
	lines := int64(ws / step)
	if lines < 1 {
		lines = 1
	}
	for a := 0; a < lvl && a < len(m.cal.Levels); a++ {
		l := m.cal.Levels[a]
		assoc := l.Assoc
		if assoc < 1 {
			assoc = 1
		}
		limit := l.Size
		if assoc >= 2 {
			limit += l.Size / 8
		}
		if units.Bytes(lines)*l.LineBytes > limit {
			continue
		}
		setSpan := l.Size / units.Bytes(assoc)
		fold := step.GCD(setSpan)
		if fold < l.LineBytes {
			fold = l.LineBytes
		}
		positions := int64(setSpan / fold)
		if positions < 1 {
			positions = 1
		}
		if lines > positions*int64(assoc) {
			continue
		}
		if assoc == 1 && ws > l.Size {
			shift := minPartnerShift(ws, l.Size, stride)
			if shift == 0 {
				continue
			}
			if shift < int64(touches) {
				return a, 1 - float64(shift)*(1-full)/float64(touches), true
			}
		}
		return a, full, true
	}
	return 0, 0, false
}

// minPartnerShift is the wrap-partner analysis of a direct-mapped
// cache smaller than the working set: addresses k*size away land on
// the same set, and partner k's touches trail a line's own by
// (k*size/wordsize) mod stride cosets. The smallest shift over all
// partners decides whether any of them lands inside the reuse window.
// Returns 0 when some partner shares the line's own cosets exactly
// (certain thrash).
func minPartnerShift(ws, size units.Bytes, stride int) int64 {
	parts := int64(ws / size)
	sizeWords := int64(size / units.Word)
	min := int64(stride)
	for k := int64(1); k < parts && k <= 64; k++ {
		s := (k * sizeWords) % int64(stride)
		if s < min {
			min = s
		}
		if min == 0 {
			return 0
		}
	}
	return min
}

// scatterOcc is the provider's charge for an isolated, out-of-order
// line touch (a scattered first touch): the cursor never matches, so
// the isolated word occupancy binds on every charged resource.
func (m *Model) scatterOcc(lvl int) units.Time {
	if lvl < len(m.cal.Levels) {
		return m.cal.Levels[lvl].WordOcc
	}
	d := m.cal.DRAM
	if m.cal.HasBus {
		busLine := m.cal.Bus.Arb + m.cal.Bus.Snoop + m.cal.Bus.LineOcc
		return maxTime(d.WordOcc, busLine, m.cal.Mem.WordOcc)
	}
	return d.WordOcc
}

// seqWalkOcc is the per-word provider charge of a strided walk whose
// accesses arrive in address order (one stride coset): the
// sequential-cursor blend.
func (m *Model) seqWalkOcc(lvl int, step units.Bytes) units.Time {
	if lvl < len(m.cal.Levels) {
		l := m.cal.Levels[lvl]
		return blendOcc(step, l.LineBytes, l.FillOcc, l.FillOcc, l.WordOcc)
	}
	if m.cal.HasBus {
		return m.smpMemOcc(step)
	}
	d := m.cal.DRAM
	seq := d.SeqOcc
	if !d.StreamsEnabled {
		seq = d.SeqOccNoStream
	}
	return blendOcc(step, d.LineBytes, seq, d.SeqOccNoStream, d.WordOcc)
}

// blendOcc charges one stride coset's walk per word against a
// provider whose line cursor grants `seq` to an established
// sequential run, `first` to a run-opening sequential hit (the stream
// detector still training), and `word` to a line skip:
//
//   - step <= line: every miss is the next line; the run never
//     breaks, so the streaming charge applies, diluted to the
//     fraction of accesses that cross a line.
//   - line < step < 2*line: deltas alternate between one line
//     (sequential) and two (skip). A run of R sequential deltas
//     serves R-1 misses streamed and one still-training; each skip
//     pays the isolated charge and restarts training.
//   - step >= 2*line: every miss skips; the isolated charge binds.
func blendOcc(step, line units.Bytes, seq, first, word units.Time) units.Time {
	r := ratio(step, line)
	switch {
	case r <= 1:
		return seq.Scale(r)
	case r < 2:
		p := 2 - r // sequential-delta fraction
		if p >= 0.5 {
			return word.Scale(1-p) + first.Scale(1-p) + seq.Scale(2*p-1)
		}
		return word.Scale(1-p) + first.Scale(p)
	}
	return word
}

// smpMemOcc is the shared-memory fill occupancy per word on the bus
// machine: a line fill charges the node's board port, the snooping
// bus, and the memory node; the busiest of the three binds. Each
// resource sees the same cursor blend; the bus charges a flat
// arbitration+snoop+line slot per fill.
func (m *Model) smpMemOcc(step units.Bytes) units.Time {
	d := m.cal.DRAM
	busLine := m.cal.Bus.Arb + m.cal.Bus.Snoop + m.cal.Bus.LineOcc
	fillsPerWord := ratio(step, d.LineBytes)
	if fillsPerWord > 1 {
		fillsPerWord = 1
	}
	port := blendOcc(step, d.LineBytes, d.SeqOcc, d.SeqOccNoStream, d.WordOcc)
	mem := blendOcc(step, d.LineBytes, m.cal.Mem.SeqOcc, m.cal.Mem.SeqOcc, m.cal.Mem.WordOcc)
	return maxTime(port, busLine.Scale(fillsPerWord), mem)
}

// segmentsVisited counts the strided-loop restarts a measured pass of
// `measured` elements walks: one per stride coset when the whole
// pattern is covered, else however many cosets the truncated pass
// reaches.
func segmentsVisited(total, stride, measured int64) int64 {
	if total <= 0 {
		return 1
	}
	segCount := stride
	if segCount < 1 {
		segCount = 1
	}
	if segCount > total {
		segCount = total
	}
	if measured >= total {
		return segCount
	}
	perSeg := (total + segCount - 1) / segCount
	v := (measured + perSeg - 1) / perSeg
	if v > segCount {
		v = segCount
	}
	if v < 1 {
		v = 1
	}
	return v
}

// TransferBW predicts the remote-transfer bandwidth at one grid cell
// (the stride applies to the remote side, matching bench: loads for
// Fetch, stores for Deposit). Unsupported mode/machine combinations
// return an error, mirroring the simulator.
func (m *Model) TransferBW(mode machine.Mode, ws units.Bytes, stride int) (units.BytesPerSec, error) {
	if ws > TransferCap {
		ws = TransferCap
	}
	switch {
	case m.cal.HasBus:
		if mode != machine.Fetch {
			return 0, fmt.Errorf("analytic: %s does not support %s transfers", m.cal.Machine, mode)
		}
		return m.smpFetchBW(ws, stride), nil
	case m.cal.EReg.Registers > 0:
		return m.eregBW(mode, ws, stride), nil
	case m.cal.FIFO.Depth > 0:
		switch mode {
		case machine.Fetch:
			return m.fifoFetchBW(ws, stride), nil
		case machine.Deposit:
			return m.depositBW(ws, stride), nil
		}
		return 0, fmt.Errorf("analytic: no %s model for %s", mode, m.cal.Machine)
	}
	return 0, fmt.Errorf("analytic: no transfer model for %s", m.cal.Machine)
}

// niSend is the injection occupancy of an n-byte message.
func niSend(l machine.LinkCal, n units.Bytes) units.Time {
	return l.NIOverhead + l.NIPerByte.ByteCost(n)
}

// fifoFetchBW models the T3D prefetch-FIFO fetch: a request/response
// pair per element, issued in windows of Depth outstanding requests.
// The request phase fully injects a window before the first response
// can be sent back (the source NI books every request receive ahead
// of its response sends), so the two injection phases do not overlap:
// each element costs one full request injection plus one full
// response injection, and each window additionally pays the
// receive-side occupancies and one routed flight before the next
// window opens. That phase serialization — not the engine read — is
// why T3D fetches crawl at a flat ~24 MB/s whatever the working set
// (§5.4).
func (m *Model) fifoFetchBW(ws units.Bytes, stride int) units.BytesPerSec {
	l, f := m.cal.Link, m.cal.FIFO
	req := niSend(l, f.RequestBytes)
	resp := niSend(l, f.ResponseBytes)
	// Per-window turnaround: the last request's receive, one routed
	// flight, and the first response's receive, amortized over the
	// window.
	flight := l.HopLatency.Scale(2) + l.LinkPerByte.ByteCost(f.RequestBytes+f.ResponseBytes)
	winLat := (req + resp).Scale(l.RecvFactor) + flight
	depth := float64(f.Depth)
	if depth < 1 {
		depth = 1
	}
	read := m.cal.DRAM.EngineWordOcc
	if stride == 1 {
		read = m.cal.DRAM.SeqOcc.Scale(ratio(units.Word, m.cal.DRAM.LineBytes))
	}
	wr := engineWriteOcc(m.cal.DRAM, units.Word)
	per := maxTime(req+resp+winLat.Scale(1/depth), read, wr, f.IssueSlot)
	w := ws.Words()
	elapsed := per.Scale(float64(w)) + m.netLatency(req+resp)
	return units.BW(ws, elapsed)
}

// depositBW models the T3D deposit: the producer's copy loop reads
// its local memory contiguously and retires remote stores through the
// write buffer, which coalesces contiguous runs into full entries and
// ships every entry as a packet (payload plus address header). The
// strided store pattern defeats coalescing — single-word packets —
// and the per-word NI injection becomes the bound (§5.4).
func (m *Model) depositBW(ws units.Bytes, stride int) units.BytesPerSec {
	cal := m.cal
	l := cal.Link
	step := units.Bytes(stride) * units.Word

	// Local read side: contiguous loads from the primed working set.
	var read units.Time
	if lvl := m.providerLevel(ws); lvl == len(cal.Levels) {
		read = m.seqWalkOcc(lvl, units.Word)
	} else if lvl > 0 {
		read = cal.Levels[lvl].FillOcc.Scale(ratio(units.Word, cal.Levels[lvl].LineBytes))
	}

	payload := units.Word
	if stride == 1 && cal.WB.EntryBytes > units.Word {
		payload = cal.WB.EntryBytes
	}
	wordsPerPkt := float64(payload.Words())
	send := niSend(l, payload+cal.DepositHeaderBytes).Scale(1 / wordsPerPkt)
	recv := send.Scale(l.RecvFactor)

	// Destination write engine: sequential deposits stream, strided
	// ones pay the isolated write occupancy and any bank conflict.
	var wr units.Time
	if stride == 1 {
		wr = cal.DRAM.WriteSeqOcc.Scale(ratio(units.Word, cal.DRAM.LineBytes))
	} else {
		wr = maxTime(cal.DRAM.WriteWordOcc, bankOcc(cal.DRAM, step))
	}

	per := maxTime(cal.CPU.CopySlot, read, send, recv, wr)
	w := ws.Words()
	elapsed := per.Scale(float64(w)) + m.netLatency(niSend(l, payload+cal.DepositHeaderBytes))
	return units.BW(ws, elapsed)
}

// eregBW models T3E E-register transfers. Contiguous transfers are
// vectorized into cache-line blocks; any striding drops to word
// chunks. Reads bypass the banks (the engine reorders around busy
// banks); writes commit in place and pay bank conflicts — the
// asymmetry behind the deposit ripples at even strides (§5.6).
func (m *Model) eregBW(mode machine.Mode, ws units.Bytes, stride int) units.BytesPerSec {
	cal := m.cal
	l, d := cal.Link, cal.DRAM

	chunk := units.Word
	if stride == 1 && cal.EReg.BlockBytes > units.Word {
		chunk = cal.EReg.BlockBytes
	}
	var read, wr units.Time
	if chunk > units.Word {
		read = d.SeqOcc.Scale(ratio(chunk, d.LineBytes))
		wr = maxTime(d.WriteSeqOcc.Scale(ratio(chunk, d.LineBytes)),
			bankOcc(d, chunk))
	} else if mode == machine.Deposit {
		// Contiguous local reads, strided remote writes.
		read = d.SeqOcc.Scale(ratio(units.Word, d.LineBytes))
		wr = d.WriteWordOcc
	} else {
		// Strided remote reads, contiguous local writes.
		read = d.EngineWordOcc
		wr = d.WriteSeqOcc.Scale(ratio(units.Word, d.LineBytes))
	}
	send := niSend(l, chunk)
	recv := send.Scale(l.RecvFactor)
	per := maxTime(cal.EReg.IssueSlot, read, send, recv, wr)
	ops := float64(ws.Words()) / float64(chunk.Words())
	elapsed := per.Scale(ops) + m.netLatency(send)
	if mode == machine.Deposit && chunk == units.Word {
		elapsed = m.depositBankElapsed(ws, stride, per) + m.netLatency(send)
	}
	return units.BW(ws, elapsed)
}

// depositBankElapsed is the elapsed time of a word-granular E-register
// deposit, including the destination bank serialization behind the
// paper's ripples (§5.6). The strided store walk wraps within the
// working set in coset order; when the step lands every write of a
// coset on one bank (step a multiple of InterleaveBytes*Banks),
// same-bank writes arrive in bursts of B = (Interleave/Word)*W/stride
// consecutive operations (consecutive cosets advance one word, so
// Interleave/Word cosets share a bank). The bank queues those writes
// at BankOcc each while the NI keeps injecting at the base rate; the
// E-register window of K outstanding operations absorbs the queue
// until roughly jStar = K*BankOcc/(BankOcc-base) operations, after
// which issue locks to the bank rate for the rest of the burst.
// Between bursts the queue drains into the idle banks, so only the
// final burst's drain extends the measured time. Short bursts (small
// working sets, large strides) therefore stay NI-bound at ~140 MB/s
// while large even-stride surfaces sink to the 8 B / BankOcc floor —
// the ripple pattern of Figure 8.
func (m *Model) depositBankElapsed(ws units.Bytes, stride int, base units.Time) units.Time {
	d := m.cal.DRAM
	w := float64(ws.Words())
	step := units.Bytes(stride) * units.Word
	occ := d.BankOcc
	flat := base.Scale(w)
	if occ <= base || d.Banks <= 1 || d.InterleaveBytes <= 0 ||
		step < d.InterleaveBytes || step%d.InterleaveBytes != 0 ||
		int(step/d.InterleaveBytes)%d.Banks != 0 {
		return flat
	}
	cosetsPerBank := float64(d.InterleaveBytes / units.Word)
	burst := cosetsPerBank * w / float64(stride)
	if burst < 1 {
		return flat
	}
	k := float64(m.cal.EReg.Registers)
	jStar := k * float64(occ) / float64(occ-base)
	perBurst := base.Scale(burst)
	if burst > jStar {
		perBurst = base.Scale(jStar) + occ.Scale(burst-jStar)
	}
	queued := burst * (1 - float64(base)/float64(occ))
	if queued > k {
		queued = k
	}
	tail := occ.Scale(queued)
	return perBurst.Scale(w/burst) + tail
}

// engineWriteOcc is the destination engine's cost of landing nb
// contiguous bytes (fetch responses land contiguously).
func engineWriteOcc(d machine.DRAMCal, nb units.Bytes) units.Time {
	return d.WriteSeqOcc.Scale(ratio(nb, d.LineBytes))
}

// bankOcc is the effective per-access bank occupancy of a strided
// write walk: accesses step bytes apart revisit the same bank every
// (Banks / gcd) accesses, so one bank sees BankOcc that often. When
// the stride lands every access on one bank the full occupancy binds
// — the deposit ripple; strides that spread across banks dilute it
// below the write channel occupancy.
func bankOcc(d machine.DRAMCal, step units.Bytes) units.Time {
	if d.Banks <= 1 || d.InterleaveBytes <= 0 || d.BankOcc <= 0 {
		return 0
	}
	distinct := d.Banks
	if step >= d.InterleaveBytes && step%d.InterleaveBytes == 0 {
		bs := int(step/d.InterleaveBytes) % d.Banks
		if bs == 0 {
			distinct = 1
		} else {
			distinct = d.Banks / gcd(bs, d.Banks)
		}
	}
	return d.BankOcc.Scale(1 / float64(distinct))
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// netLatency is the pipeline-fill constant of a transfer: one
// round-trip worth of injection and routing before the steady state
// establishes. It only matters for tiny working sets.
func (m *Model) netLatency(inj units.Time) units.Time {
	if !m.cal.HasTorus {
		return 0
	}
	return inj + m.cal.Link.HopLatency.Scale(2)
}

// smpFetchBW models the DEC 8400 pull transfer. The consumer's copy
// loop faults every source line across the bus once (the strided walk
// wraps within the working set, so every line is eventually touched
// and stays cached while it fits the consumer's B-cache) — dirty
// cache-to-cache from the producer while the source fits the
// producer's B-cache, as a memory burst otherwise. Three costs
// serialize through the consumer's pipeline:
//
//   - Each pull's bus round trip stalls the CPU for its full latency
//     minus the unrolled loop's hide window — the bus transaction is
//     far longer than eight copy slots, so pulls are latency-bound,
//     not occupancy-bound.
//   - The other words of each line re-read from the consumer's own
//     hierarchy at that level's word occupancy.
//   - The landing buffer aliases the source in the direct-mapped
//     B-cache (both regions map to the same sets), so landing lines
//     are repeatedly evicted and re-fetched from shared memory —
//     write-allocate traffic that occupies the consumer's board
//     interface and the bus alongside the pulls.
func (m *Model) smpFetchBW(ws units.Bytes, stride int) units.BytesPerSec {
	cal := m.cal
	w := ws.Words()
	fw := float64(w)
	step := units.Bytes(stride) * units.Word
	deepest := cal.Levels[len(cal.Levels)-1]
	upper := cal.Levels[len(cal.Levels)-2]
	lineB := cal.DRAM.LineBytes
	l1B := upper.LineBytes
	hide := cal.CPU.CopySlot.Scale(cal.CPU.HideDepth)

	dstWS := ws
	if dstWS > cal.ConsumeBufBytes {
		dstWS = cal.ConsumeBufBytes
	}

	// cosetFoot is the bytes of fresh fill the strided walk inserts
	// into a cache of the given line size during one coset (the walk
	// wraps within the working set, so a line pulled in one coset is
	// touched again one coset later — it survives iff the interleaving
	// fills fit the cache).
	cosetFoot := func(line units.Bytes) units.Bytes {
		perCoset := fw / float64(stride)
		fillsPerAccess := ratio(step, line)
		if fillsPerAccess > 1 {
			fillsPerAccess = 1
		}
		return line.Scale(perCoset * fillsPerAccess)
	}

	// Pulls across the bus: one per distinct source line while the
	// coset-reuse footprint fits the consumer's B-cache; beyond it,
	// lines are evicted between coset visits and every access wide
	// enough to leave the line re-pulls. Just past the B-cache size
	// with a surviving footprint, the landing alias still evicts a
	// third of the lines once.
	// A line stride folds the direct-mapped B-cache's useful sets: a
	// walk at 2^k lines per step only ever lands on every 2^k-th set,
	// shrinking the capacity available for coset reuse by that factor.
	// Non-line-aligned steps drift across all sets and keep the full
	// capacity.
	effCap := deepest.Size
	if step%lineB == 0 {
		sets := deepest.Size / lineB
		effCap /= (step / lineB).GCD(sets)
	}

	pulls := float64(ws / lineB)
	if ws > deepest.Size {
		if cosetFoot(lineB) > effCap {
			perWord := ratio(step, lineB)
			if perWord > 1 {
				perWord = 1
			}
			if pw := fw * perWord; pw > pulls {
				pulls = pw
			}
		} else {
			pulls *= 4.0 / 3
		}
	}
	// Fraction of pulls answered dirty cache-to-cache by the producer.
	dirty := 1.0
	if ws > deepest.Size {
		dirty = float64(deepest.Size) / float64(ws)
	}
	busOcc := cal.Bus.Arb + cal.Bus.Snoop +
		cal.Bus.C2COcc.Scale(dirty) +
		(cal.Bus.LineOcc + cal.Mem.SeqOcc).Scale(1-dirty)
	portOcc := cal.DRAM.SeqOcc
	if step > lineB {
		portOcc = cal.DRAM.WordOcc
	}
	pullStall := maxTime(busOcc, portOcc) - hide
	if pullStall < 0 {
		pullStall = 0
	}
	if ws+dstWS <= upper.Size && stride >= 3 {
		// Small strided transfers: most accesses of the first coset
		// are pulls, nearly back to back, with too few cheap loads in
		// between to fill the unrolled window — pulls cost the full
		// bus round trip instead of hiding behind it.
		pullStall = busOcc
	}

	// Re-reads of already-pulled words from the consumer's own
	// hierarchy. They overlap the issue stream, so only the occupancy
	// above the copy slot counts. The level they hit follows the same
	// coset-survival rule, now against the upper cache.
	rereads := fw - pulls
	if rereads < 0 {
		rereads = 0
	}
	wordsPerL1 := ratio(l1B, units.Word)
	deepFill := deepest.FillOcc.Scale(ratio(l1B, deepest.LineBytes))
	var rereadOcc units.Time
	switch {
	// The landing stores insert lines alongside the source's coset
	// footprint, so coset reuse only survives the upper cache with a
	// third of it left as headroom.
	case ws+dstWS <= upper.Size, cosetFoot(l1B) <= upper.Size*2/3:
		rereadOcc = upper.WordOcc
	case step < l1B:
		// Contiguous re-reads amortize one upper-line fill from the
		// B-cache over the words it delivers.
		rereadOcc = (deepFill + upper.WordOcc.Scale(wordsPerL1-1)).Scale(1 / wordsPerL1)
	default:
		rereadOcc = deepFill
	}
	rereadOcc -= cal.CPU.CopySlot
	if rereadOcc < 0 {
		rereadOcc = 0
	}

	// Landing-buffer refetches: the landing zone aliases the source in
	// the consumer's B-cache, so landing lines are evicted and come
	// back from shared memory through the consumer's board interface
	// — write-allocate traffic alongside the pulls. The refetch count
	// scales with how far past the upper cache the pair has grown
	// (alias), how many times the store cursor wraps the landing zone,
	// and how bursty the load stream's evictions are at the stride:
	// near-contiguous walks evict a step/line fraction of the landing
	// per wrap (floored at the 1.5x a single contiguous pass costs),
	// line-stride walks evict every landing line per wrap, and wider
	// strides spread their fills so roughly half the lines survive.
	landLines := ratio(dstWS, l1B)
	wraps := ratio(ws, dstWS)
	if wraps < 1 {
		wraps = 1
	}
	alias := ratio(ws+dstWS-upper.Size, upper.Size) * 1.5
	if alias < 0 {
		alias = 0
	}
	if alias > 1 {
		alias = 1
	}
	var refetch float64
	if step <= lineB {
		refetch = wraps * ratio(step, lineB)
		if refetch < 1.5 {
			refetch = 1.5
		}
		refetch *= alias
	} else {
		ripple := 0.45
		if step < 2*lineB {
			ripple += 0.55 * ratio(2*lineB-step, lineB)
		}
		refetch = alias * wraps * ripple
	}
	refetchCost := cal.DRAM.WordOcc + cal.Bus.Arb + cal.Bus.Snoop +
		cal.Bus.LineOcc + cal.Mem.SeqOcc + upper.FillOcc
	if step >= lineB {
		// While the pair only partially overflows the upper cache, each
		// refetched line also forces a dirty victim writeback.
		refetchCost = refetchCost.Scale(1 + (1 - alias))
	}

	segs := segmentsVisited(w, int64(stride), w)
	issue := cal.CPU.CopySlot.Scale(fw) +
		cal.CPU.SegmentOverhead.Scale(float64(segs))
	elapsed := issue +
		pullStall.Scale(pulls) +
		rereadOcc.Scale(rereads) +
		refetchCost.Scale(refetch*landLines)
	return units.BW(ws, elapsed)
}

// ratio is the dimensionless quotient of two byte quantities.
func ratio(a, b units.Bytes) float64 { return float64(a) / float64(b) }

func maxTime(ts ...units.Time) units.Time {
	var m units.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
