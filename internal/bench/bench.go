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
