package node

import (
	"repro/internal/access"
	"repro/internal/units"
)

// This file holds the benchmark entry points. A run is count accesses
// from start with a fixed byte step — exactly what access.Cursor.Run
// produces; a single access is a count-1 run. The loops look up the
// issue slot and hide window once per run; the memory system is still
// consulted word by word, so a run times exactly like the same
// accesses issued one count-1 run at a time.

// LoadRun performs count elements of a load-sum loop at start,
// start+step, ... in order. Each loaded value is consumed (summed), so
// latency beyond the unrolling window stalls the pipeline.
func (n *Node) LoadRun(start access.Addr, step, count int64) {
	slot := n.cfg.CPU.LoadSlot()
	hide := n.window.Hide(slot)
	a := start
	for i := int64(0); i < count; i++ {
		now := n.clock.Now()
		ready := n.resolveLoad(a, now)
		stall := n.window.StallHidden(now, ready, hide)
		n.loads.Inc()
		n.issueTime.Add(slot)
		n.loadStall.Add(stall)
		n.clock.Advance(slot + stall)
		a += access.Addr(step)
	}
}

// StoreRun performs count elements of a store loop at start,
// start+step, ... in order. Stores retire into buffers; stalls arise
// only from backpressure.
func (n *Node) StoreRun(start access.Addr, step, count int64) {
	slot := n.cfg.CPU.StoreSlot()
	a := start
	for i := int64(0); i < count; i++ {
		now := n.clock.Now()
		stall := n.resolveStore(a, now)
		n.stores.Inc()
		n.issueTime.Add(slot)
		n.storeStall.Add(stall)
		n.clock.Advance(slot + stall)
		a += access.Addr(step)
	}
}

// CopyPass runs the full load/store copy loop of cp in batched runs,
// pairing the i-th load with the i-th store and charging the segment
// restart overhead exactly where the per-word walk reports a new
// source or destination segment. max bounds the number of words
// copied (<= 0 means no bound). Returns the number of words copied.
func (n *Node) CopyPass(cp access.CopyPattern, max int64) int64 {
	if max <= 0 {
		max = 1 << 62
	}
	src := access.NewCursor(access.Pattern{
		Base: cp.SrcBase, WorkingSet: cp.WorkingSet, Stride: cp.LoadStride, NoWrap: cp.LoadNoWrap})
	dst := access.NewCursor(access.Pattern{
		Base: cp.DstBase, WorkingSet: cp.WorkingSet, Stride: cp.StoreStride, NoWrap: cp.StoreNoWrap})
	var words int64
	// Each load run is partitioned into the store runs that overlap
	// it: load segments can only begin at a load-run start, store
	// segments at a store-run start, so batching preserves the
	// per-word SegmentStart placement.
outer:
	for words < max {
		la, lstep, lcount, lseg, lok := src.Run(max - words)
		if !lok {
			break
		}
		for done := int64(0); done < lcount; {
			sa, sstep, scount, sseg, sok := dst.Run(lcount - done)
			if !sok {
				break outer
			}
			if (lseg && done == 0) || sseg {
				n.SegmentStart()
			}
			n.CopyRun(la+access.Addr(done*lstep), lstep, sa, sstep, scount)
			done += scount
			words += scount
		}
	}
	return words
}

// CopyRun performs count elements of a load/store copy loop: for each
// (src+i*srcStep, dst+i*dstStep) pair in order, load the word at the
// source and store it at the destination.
func (n *Node) CopyRun(src access.Addr, srcStep int64, dst access.Addr, dstStep int64, count int64) {
	slot := n.cfg.CPU.CopySlot()
	hide := n.window.Hide(slot)
	var loadStall, storeStall units.Time
	for i := int64(0); i < count; i++ {
		now := n.clock.Now()
		ready := n.resolveLoad(src, now)
		loadStall = n.window.StallHidden(now, ready, hide)
		storeStall = n.resolveStore(dst, now+loadStall)
		n.loads.Inc()
		n.stores.Inc()
		n.issueTime.Add(slot)
		n.loadStall.Add(loadStall)
		n.storeStall.Add(storeStall)
		n.clock.Advance(slot + loadStall + storeStall)
		src += access.Addr(srcStep)
		dst += access.Addr(dstStep)
	}
}
