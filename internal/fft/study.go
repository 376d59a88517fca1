package fft

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

// complexBytes is the storage of one matrix element: "complex numbers
// represented as a pair of 64bit, double precision floating point
// numbers" (§7.1).
const complexBytes = 16

// Result summarizes one 2D-FFT run of the study (Figures 15-17).
type Result struct {
	Machine string
	N, P    int

	// ComputeTime / CommTime are per-processor phase totals over the
	// whole 2D-FFT (two FFT phases, two transposes).
	ComputeTime units.Time
	CommTime    units.Time
	Total       units.Time

	// MFlops is the overall application performance (Figure 15).
	MFlops float64
	// ComputeMFlops is the local computation performance counting
	// only FFT time (Figure 16).
	ComputeMFlops float64
	// CommMBps is the aggregate communication performance of the
	// transposes (Figure 17).
	CommMBps float64

	// Strategy is the transpose implementation used.
	Strategy string
}

func (r Result) String() string {
	return fmt.Sprintf("%s %dx%d on %dP: %.0f MFlop/s total (comp %.0f MFlop/s, comm %.0f MB/s, %s)",
		r.Machine, r.N, r.N, r.P, r.MFlops, r.ComputeMFlops, r.CommMBps, r.Strategy)
}

// Options tunes the study.
type Options struct {
	// UsePlanner lets the Fx planner choose the transpose transfer
	// mode from the characterization; otherwise the vendor-default
	// primitive is used (deposit/shmem_iput on the Crays, pull on
	// the 8400) — the configuration the paper measured.
	UsePlanner bool
	// Char is the machine's characterization (required: computation
	// timing uses the measured load surface, and the planner the
	// transfer curves).
	Char *core.Characterization
}

// Run2D executes the performance study of one n x n 2D-FFT on the
// machine's 4 (or more) processors and returns the measures of
// Figures 15-17.
//
// Computation: each processor runs N/P row FFTs per phase, calling
// the vendor's library 1D-FFT (§7.1). Its time is the flop time at
// the node's library flop rate plus the row traffic at the measured
// load bandwidth for the row's working set — the memory-hierarchy
// effect that makes the T3D "fall off with large problems" while the
// 8400's big caches hold (§7.3).
//
// Communication: the transposes are simulated on the machine, each
// processor exchanging tiles with every other (AAPC); the strided
// side has stride 2N words (a row of complex numbers).
func Run2D(m machine.Machine, n int, opt Options) (Result, error) {
	p := m.NumNodes()
	if opt.Char == nil {
		return Result{}, fmt.Errorf("fft: Options.Char is required")
	}

	res := Result{Machine: m.Name(), N: n, P: p}

	// --- Computation phases ---
	nd := m.Node(0)
	rowBytes := units.Bytes(n * complexBytes)
	flopsRow := Flops1D(n)
	flopRate := nd.CPU().FlopsPerCycle * nd.CPU().Clock.MHz * 1e6 // flops/s
	flopTime := units.Time(float64(flopsRow) / flopRate * 1e9)
	// The library FFT reads and writes the row once per blocked
	// pass; the measured load surface supplies the bandwidth at the
	// row's working set.
	bw := opt.Char.LoadBandwidth(rowBytes, 1)
	memTime := units.TimeFor(2*rowBytes, bw)
	rowTime := flopTime + memTime
	rowsPerProc := n / p
	if rowsPerProc == 0 {
		rowsPerProc = 1
	}
	res.ComputeTime = 2 * units.Time(rowsPerProc) * rowTime // two FFT phases

	// --- Transpose phases ---
	tile := access.TransposeTraffic{N: n, P: p}
	redis := core.Redistribution{
		Bytes:        tile.RemoteBytesPerProcessor(),
		RemoteStride: tile.StrideWords(),
	}
	mode := defaultMode(m)
	res.Strategy = "vendor default (" + mode.String() + ")"
	if opt.UsePlanner {
		best, err := opt.Char.Best(redis)
		if err != nil {
			return Result{}, err
		}
		for _, s := range best.Steps {
			if s.Locality == core.Remote {
				mode = s.Mode
			}
		}
		res.Strategy = "planner: " + best.Name
	}
	commOne, err := simulateTranspose(m, n, mode, !opt.UsePlanner)
	if err != nil {
		return Result{}, err
	}
	res.CommTime = 2 * commOne // two transposes

	// --- Aggregate measures ---
	res.Total = res.ComputeTime + res.CommTime
	totalFlops := Flops2D(n)
	res.MFlops = units.MFlops(units.Flops(totalFlops), res.Total)
	res.ComputeMFlops = units.MFlops(units.Flops(totalFlops), res.ComputeTime)
	commBytes := 2 * units.Bytes(p) * tile.RemoteBytesPerProcessor()
	res.CommMBps = units.BW(commBytes, res.CommTime).MBps()
	return res, nil
}

// defaultMode returns the vendor-default transpose primitive: the
// customized put on the T3D, shmem_iput on the T3E (§2, §7.1), and
// the coherence pull on the 8400.
func defaultMode(m machine.Machine) machine.Mode {
	if _, ok := m.(*machine.SMP); ok {
		return machine.Fetch
	}
	return machine.Deposit
}

// simulateTranspose runs one AAPC transpose on the simulator. In the
// application, every processor communicates at once, so the shared
// resources divide: the 8400's one bus carries all four processors'
// pulls (that ceiling is exactly why the 8400's fast processors gain
// so little overall, §7.3), and the T3D's paired processors share a
// network access. Those machines are simulated with all processors'
// transfer loops interleaved in time. On the T3E "there is no
// contention" (§6.2) — each pair transfer is simulated in isolation
// and processor pairs proceed in parallel.
func simulateTranspose(m machine.Machine, n int, mode machine.Mode, vendorPrimitive bool) (units.Time, error) {
	p := m.NumNodes()
	tile := access.TransposeTraffic{N: n, P: p}
	tileBytes := units.Bytes(tile.TileWords()) * units.Word

	if smp, ok := m.(*machine.SMP); ok {
		return transposePullConcurrent(smp, tile, tileBytes), nil
	}
	if mode == machine.Deposit && machine.PreferredPartner(m) == 2 {
		// Shared-NI machine (T3D): interleave the CPU deposit loops.
		return transposeDepositConcurrent(m, tile, tileBytes), nil
	}

	// Contention-free torus (T3E, §6.2: "On the T3E there is no
	// contention"): each processor's sequence of tile transfers runs
	// at the pair rate; processors proceed in parallel, so the phase
	// time is one processor's sequence.
	//
	// The vendor shmem_iput/iget take a single 1D stride, but the
	// transpose of a distributed 2D array needs a 2D access pattern,
	// so the library call must be reissued once per tile column —
	// "a mismatch between the required memory access patterns for
	// the transpose ... and the simple capabilities of the shmem
	// iput primitive" (§7.3). Each call pays a software setup
	// overhead, which is what kept the measured T3E below the
	// factor-3-over-T3D the characterization promised.
	var total units.Time
	if vendorPrimitive {
		// One library call per tile row: the source row segment is
		// contiguous, the destination a true scatter with the full
		// matrix-row stride.
		cols := tile.N / tile.P
		colBytes := tileBytes / units.Bytes(cols)
		for other := 1; other < p; other++ {
			var tileTime units.Time
			for col := 0; col < cols; col++ {
				// Each library call starts after the previous one
				// completed (the software overhead separates them).
				m.ResetTiming()
				cp := access.CopyPattern{
					SrcBase:    machine.LocalBase(0) + access.Addr(col*int(colBytes)),
					DstBase:    machine.LocalBase(other) + access.Addr(col*16),
					WorkingSet: colBytes, LoadStride: 1, StoreStride: 1,
				}
				if mode == machine.Deposit {
					cp.StoreStride = tile.StrideWords()
					cp.StoreNoWrap = true
				} else {
					cp.LoadStride = tile.StrideWords()
					cp.LoadNoWrap = true
				}
				el, err := m.Transfer(0, other, cp, machine.Options{Mode: mode})
				if err != nil {
					return 0, err
				}
				tileTime += el + shmemCallOverhead
			}
			total += tileTime
		}
		return total, nil
	}
	// The planner's rewritten primitive handles the 2D pattern in a
	// single call per tile (the rewrite of §7.3).
	for other := 1; other < p; other++ {
		cp := access.CopyPattern{
			SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(other),
			WorkingSet: tileBytes, LoadStride: 1, StoreStride: 1,
		}
		if mode == machine.Deposit {
			cp.StoreStride = tile.StrideWords()
		} else {
			cp.LoadStride = tile.StrideWords()
		}
		m.ColdReset()
		el, err := m.Transfer(0, other, cp, machine.Options{Mode: mode})
		if err != nil {
			return 0, err
		}
		total += el
	}
	return total, nil
}

// shmemCallOverhead is the software setup cost of one shmem_iput /
// shmem_iget library call on the early T3E ("we rely on a first
// implementation of the shmem_iput and shmem_iget communication
// primitives", §3.3; "some minor improvements of the measured data
// can be expected as the communication software matures", §2).
const shmemCallOverhead = 15 * units.Microsecond

// transposePullConcurrent interleaves all processors' pull loops on
// the 8400: every consumer walks its incoming tiles while the others
// do the same, so the snooping bus carries the whole AAPC at once.
func transposePullConcurrent(m *machine.SMP, tile access.TransposeTraffic, tileBytes units.Bytes) units.Time {
	p := m.NumNodes()
	m.ColdReset()
	// Each producer's partition was just written by the FFT phase:
	// establish the dirty state (a tag-only store prime).
	for r := 0; r < p; r++ {
		prod := access.Pattern{Base: machine.LocalBase(r), WorkingSet: tileBytes * units.Bytes(p-1), Stride: 1}
		prod.Walk(func(a access.Addr, _ bool) { m.Node(r).PrimeStoreRun(a, 0, 1) })
		m.Node(r).FlushWrites()
	}
	m.ResetTiming()

	// One cursor per (consumer, producer) tile; consumers advance
	// round-robin so their bus traffic interleaves in time.
	type actor struct {
		node  int
		loads []*access.Cursor
		buf   access.Addr
		off   int64
	}
	actors := make([]*actor, p)
	for r := 0; r < p; r++ {
		a := &actor{node: r, buf: machine.LocalBase(r) + access.Addr(3*units.GB)}
		// Rotation schedule (no producer is pulled by everyone at
		// once).
		for k := 1; k < p; k++ {
			q := (r + k) % p
			a.loads = append(a.loads, access.NewCursor(access.Pattern{
				Base:       machine.LocalBase(q) + access.Addr(int64(r)*tile.TileWords()*8),
				WorkingSet: tileBytes,
				Stride:     tile.StrideWords(),
			}))
		}
		actors[r] = a
	}
	const burst = 32
	for {
		active := false
		for _, a := range actors {
			nd := m.Node(a.node)
			for i := 0; i < burst; i++ {
				if len(a.loads) == 0 {
					break
				}
				la, _, ok := a.loads[0].Next()
				if !ok {
					a.loads = a.loads[1:]
					continue
				}
				// Land in a small reused buffer (consumed by the
				// next FFT phase).
				dst := a.buf + access.Addr(a.off%int64(consumeBufWords))*8
				a.off++
				nd.CopyRun(la, 0, dst, 0, 1)
				active = true
			}
		}
		if !active {
			break
		}
	}
	var maxT units.Time
	for r := 0; r < p; r++ {
		m.Node(r).FlushWrites()
		if t := m.Node(r).Now(); t > maxT {
			maxT = t
		}
	}
	return maxT
}

// consumeBufWords sizes the per-consumer landing buffer of the
// concurrent transpose (cache resident).
const consumeBufWords = 32 * 1024 // 256 KB

// transposeDepositConcurrent interleaves all producers' deposit loops
// on the T3D, so that paired processors contend for their shared
// network access as they do in the running application.
func transposeDepositConcurrent(m machine.Machine, tile access.TransposeTraffic, tileBytes units.Bytes) units.Time {
	p := m.NumNodes()
	m.ColdReset()
	type actor struct {
		node   int
		loads  *access.Cursor
		stores []*access.Cursor
	}
	actors := make([]*actor, p)
	for r := 0; r < p; r++ {
		// The Fx transpose on the T3D reads the tile column-wise at
		// the source (strided local loads) and deposits contiguous
		// runs, which coalesce in the write queue into full network
		// packets — the "strided loads/contiguous remote stores"
		// variant of Figure 13.
		a := &actor{node: r}
		a.loads = access.NewCursor(access.Pattern{
			Base: machine.LocalBase(r), WorkingSet: tileBytes * units.Bytes(p-1),
			Stride: tile.StrideWords(),
		})
		// Rotation schedule: in round k, processor r sends to
		// (r+k+1) mod p, so no destination is ever a hotspot — the
		// congestion-free AAPC permutations of §3.2's footnote.
		for k := 1; k < p; k++ {
			q := (r + k) % p
			a.stores = append(a.stores, access.NewCursor(access.Pattern{
				Base:       machine.LocalBase(q) + access.Addr(int64(r)*tile.TileWords()*8),
				WorkingSet: tileBytes,
				Stride:     1,
			}))
		}
		actors[r] = a
	}
	const burst = 32
	for {
		active := false
		for _, a := range actors {
			nd := m.Node(a.node)
			for i := 0; i < burst; i++ {
				if len(a.stores) == 0 {
					break
				}
				sa, _, ok := a.stores[0].Next()
				if !ok {
					a.stores = a.stores[1:]
					continue
				}
				la, _, lok := a.loads.Next()
				if !lok {
					a.loads.Reset()
					la, _, _ = a.loads.Next()
				}
				nd.CopyRun(la, 0, sa, 0, 1)
				active = true
			}
		}
		if !active {
			break
		}
	}
	var maxT units.Time
	for r := 0; r < p; r++ {
		m.Node(r).FlushWrites()
		if t := m.Node(r).Now(); t > maxT {
			maxT = t
		}
	}
	return maxT
}
