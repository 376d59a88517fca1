// Package bench implements the paper's micro-benchmarks (§4.2): the
// Load Sum and Store Constant loops and the Load/Store copy loops,
// run over stride x working-set sweeps against the simulated
// machines, exactly as the originals ran against the hardware —
// primed caches, all elements touched once per pass, loop overhead at
// segment restarts.
//
// Very large passes are sampled: after a bounded priming pass the
// measured pass simulates a bounded number of accesses and reports
// steady-state bandwidth. The caps comfortably exceed every cache in
// the modelled machines, so the cache state a full pass would reach
// is preserved.
package bench

import (
	"repro/internal/access"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

const (
	// primeWords bounds the priming pass (8 MB of touched data —
	// twice the largest cache, the 8400's 4 MB L3).
	primeWords = 1 << 20
	// measureWords bounds the measured pass.
	measureWords = 128 << 10
	// transferCap bounds the simulated portion of very large remote
	// transfers (16 MB; every machine's caches are far smaller, so
	// the remainder is steady state).
	transferCap = 16 * units.MB
)

// LoadSum runs the Load Sum benchmark on node idx of m: every element
// of the working set is loaded and accumulated (§4.2). Returns the
// steady-state load bandwidth.
func LoadSum(m machine.Machine, idx int, p access.Pattern) units.BytesPerSec {
	n := m.Node(idx)
	prime(n, p)
	m.ResetTiming()
	words := measure(n, p)
	return units.BW(units.Bytes(words)*units.Word, n.Now())
}

// StoreConst runs the Store Constant benchmark: every element of the
// working set is overwritten with a constant (§4.2).
func StoreConst(m machine.Machine, idx int, p access.Pattern) units.BytesPerSec {
	n := m.Node(idx)
	prime(n, p)
	m.ResetTiming()
	var words int64
	c := access.NewCursor(p)
	for words < measureWords {
		start, step, count, seg, ok := c.Run(measureWords - words)
		if !ok {
			break
		}
		if seg {
			n.SegmentStart()
		}
		n.StoreRun(start, step, count)
		words += count
	}
	n.FlushWrites()
	return units.BW(units.Bytes(words)*units.Word, n.Now())
}

// LocalCopy runs the Load/Store copy benchmark on node idx: data is
// copied with one side strided, the other contiguous (§4.2, §6.1).
// The reported figure is memory copy bandwidth: bytes copied per
// second.
func LocalCopy(m machine.Machine, idx int, cp access.CopyPattern) units.BytesPerSec {
	n := m.Node(idx)
	// Prime both arrays (the benchmark reuses its buffers).
	prime(n, access.Pattern{Base: cp.SrcBase, WorkingSet: cp.WorkingSet, Stride: cp.LoadStride})
	primeStore(n, access.Pattern{Base: cp.DstBase, WorkingSet: cp.WorkingSet, Stride: cp.StoreStride})
	m.ResetTiming()

	words := n.CopyPass(cp, measureWords)
	n.FlushWrites()
	return units.BW(units.Bytes(words)*units.Word, n.Now())
}

// Transfer runs a remote transfer and reports its throughput. Very
// large working sets are truncated to a steady-state sample.
func Transfer(m machine.Machine, src, dst int, cp access.CopyPattern, opt machine.Options) (units.BytesPerSec, error) {
	if cp.WorkingSet > transferCap {
		cp.WorkingSet = transferCap
	}
	m.ResetTiming()
	elapsed, err := m.Transfer(src, dst, cp, opt)
	if err != nil {
		return 0, err
	}
	return units.BW(cp.WorkingSet, elapsed), nil
}

// LoadSurface sweeps LoadSum over the grid — Figures 1, 3, and 6.
// Points fan out across the pool's workers; results land by index, so
// the surface is byte-identical whatever the pool width. With a store
// attached to the pool, a cached surface under the same calibration
// is served (partial artifacts cost only their cold cells) and fresh
// results are written back.
func LoadSurface(p *sweep.Pool, idx int, strides []int, wss []units.Bytes) *surface.Surface {
	cal := p.Machine().Calibration()
	key := LoadSurfaceKey(cal, idx, strides, wss)
	base := machine.LocalBase(idx)
	kernel := func(m machine.Machine, i int, s *surface.Surface) error {
		wi, si := i/len(strides), i%len(strides)
		bw := LoadSum(m, idx, access.Pattern{Base: base, WorkingSet: wss[wi], Stride: strides[si]})
		s.Set(wi, si, bw)
		s.SetSource(wi, si, surface.Simulated)
		return nil
	}
	if s, done := storedSurface(p, key, kernel); done {
		return s
	}
	s := surface.New(p.Machine().Name(), "local load bandwidth", strides, wss)
	s.CalHash = cal.Hash()
	// The load kernel cannot fail; Run's error is always nil here.
	_ = p.Run(len(wss)*len(strides), func(m machine.Machine, i int) error {
		return kernel(m, i, s)
	})
	putSurface(p, key, s)
	return s
}

// TransferSurface sweeps remote transfers over the grid — Figures 2,
// 4, 5, 7, and 8. The stride applies to the remote side: the loads
// for Fetch, the stores for Deposit; the local side is contiguous.
func TransferSurface(p *sweep.Pool, src, dst int, mode machine.Mode, strides []int, wss []units.Bytes) (*surface.Surface, error) {
	cal := p.Machine().Calibration()
	key := TransferSurfaceKey(cal, src, dst, mode, strides, wss)
	kernel := func(m machine.Machine, i int, s *surface.Surface) error {
		wi, si := i/len(strides), i%len(strides)
		cp := access.CopyPattern{
			SrcBase: machine.LocalBase(src), DstBase: machine.LocalBase(dst),
			WorkingSet: wss[wi], LoadStride: 1, StoreStride: 1,
		}
		if mode == machine.Deposit {
			cp.StoreStride = strides[si]
		} else {
			cp.LoadStride = strides[si]
		}
		bw, err := Transfer(m, src, dst, cp, machine.Options{Mode: mode})
		if err != nil {
			return err
		}
		s.Set(wi, si, bw)
		s.SetSource(wi, si, surface.Simulated)
		return nil
	}
	if s, done := storedSurface(p, key, kernel); done {
		return s, nil
	}
	title := "remote transfer bandwidth, " + mode.String()
	s := surface.New(p.Machine().Name(), title, strides, wss)
	s.CalHash = cal.Hash()
	err := p.Run(len(wss)*len(strides), func(m machine.Machine, i int) error {
		return kernel(m, i, s)
	})
	if err != nil {
		return nil, err
	}
	putSurface(p, key, s)
	return s, nil
}

// CopyCurve sweeps LocalCopy over strides at a fixed large working
// set — Figures 9-11. stridedLoads selects which side is strided.
func CopyCurve(p *sweep.Pool, idx int, ws units.Bytes, strides []int, stridedLoads bool) *surface.Curve {
	// Clamp before keying: the sweep only ever sees the clamped
	// working set, so two over-cap requests share one store entry.
	if ws > transferCap {
		ws = transferCap
	}
	cal := p.Machine().Calibration()
	title := "local copy, contiguous loads/strided stores"
	if stridedLoads {
		title = "local copy, strided loads/contiguous stores"
	}
	key := CopyCurveKey(cal, idx, ws, strides, stridedLoads)
	if c, ok := storedCurve(p, key); ok {
		return c
	}
	c := &surface.Curve{Machine: p.Machine().Name(), Title: title,
		CalHash: cal.Hash(),
		Strides: append([]int(nil), strides...),
		BW:      make([]units.BytesPerSec, len(strides))}
	base := machine.LocalBase(idx)
	// The copy kernel cannot fail; Run's error is always nil here.
	_ = p.Run(len(strides), func(m machine.Machine, i int) error {
		cp := access.CopyPattern{
			SrcBase: base, DstBase: base + 1<<30,
			WorkingSet: ws, LoadStride: 1, StoreStride: 1,
		}
		if stridedLoads {
			cp.LoadStride = strides[i]
		} else {
			cp.StoreStride = strides[i]
		}
		c.BW[i] = LocalCopy(m, idx, cp)
		return nil
	})
	putCurve(p, key, c)
	return c
}

// TransferCurve sweeps remote transfers over strides at a fixed large
// working set — Figures 12-14. stridedLoads selects whether the
// source reads or the destination writes are strided.
func TransferCurve(p *sweep.Pool, src, dst int, ws units.Bytes, strides []int, mode machine.Mode, stridedLoads bool, pipelined bool) (*surface.Curve, error) {
	cal := p.Machine().Calibration()
	title := "remote copy, " + mode.String()
	if stridedLoads {
		title += ", strided loads/contiguous stores"
	} else {
		title += ", contiguous loads/strided stores"
	}
	// TransferCurveKey clamps the working set to transferCap, matching
	// the clamp Transfer applies to every measured point.
	key := TransferCurveKey(cal, src, dst, ws, strides, mode, stridedLoads, pipelined)
	if c, ok := storedCurve(p, key); ok {
		return c, nil
	}
	c := &surface.Curve{Machine: p.Machine().Name(), Title: title,
		CalHash: cal.Hash(),
		Strides: append([]int(nil), strides...),
		BW:      make([]units.BytesPerSec, len(strides))}
	err := p.Run(len(strides), func(m machine.Machine, i int) error {
		cp := access.CopyPattern{
			SrcBase: machine.LocalBase(src), DstBase: machine.LocalBase(dst),
			WorkingSet: ws, LoadStride: 1, StoreStride: 1,
		}
		if stridedLoads {
			cp.LoadStride = strides[i]
		} else {
			cp.StoreStride = strides[i]
		}
		bw, err := Transfer(m, src, dst, cp, machine.Options{Mode: mode, Pipelined: pipelined})
		if err != nil {
			return err
		}
		c.BW[i] = bw
		return nil
	})
	if err != nil {
		return nil, err
	}
	putCurve(p, key, c)
	return c, nil
}

// prime walks up to primeWords of p with loads (primed-cache
// semantics, §5) and returns the number of accesses made. Every
// caller resets timing before it measures, so the pass runs tag-only:
// node.PrimeRun leaves the caches exactly as timed loads would,
// without charging time.
func prime(n *node.Node, p access.Pattern) int64 {
	c := access.NewCursor(p)
	left := int64(primeWords)
	for left > 0 {
		start, step, count, _, ok := c.Run(left)
		if !ok {
			break
		}
		n.PrimeRun(start, step, count)
		left -= count
	}
	return primeWords - left
}

// primeStore walks up to primeWords of p with stores and drains the
// write buffer. Like prime, it runs tag-only: node.PrimeStoreRun
// leaves the caches exactly as timed stores would.
func primeStore(n *node.Node, p access.Pattern) {
	c := access.NewCursor(p)
	for left := int64(primeWords); left > 0; {
		start, step, count, _, ok := c.Run(left)
		if !ok {
			break
		}
		n.PrimeStoreRun(start, step, count)
		left -= count
	}
	n.FlushWrites()
}

// measure walks up to measureWords of p with loads, charging segment
// overhead, and returns the number of accesses made.
func measure(n *node.Node, p access.Pattern) int64 {
	c := access.NewCursor(p)
	var words int64
	for words < measureWords {
		start, step, count, seg, ok := c.Run(measureWords - words)
		if !ok {
			break
		}
		if seg {
			n.SegmentStart()
		}
		n.LoadRun(start, step, count)
		words += count
	}
	return words
}
