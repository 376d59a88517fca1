package bench

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/units"
)

// timedPrime is the priming pass as it ran before it went tag-only:
// the same cursor walk through the timed LoadRun.
func timedPrime(n *node.Node, p access.Pattern) {
	c := access.NewCursor(p)
	for left := int64(primeWords); left > 0; {
		start, step, count, _, ok := c.Run(left)
		if !ok {
			return
		}
		n.LoadRun(start, step, count)
		left -= count
	}
}

// TestPrimeRunMatchesTimedPrime pins the tag-only prime to the timed
// one on all three machines, from a cold machine and from a warm,
// dirty one (stores on a second node and a store-then-copy on the
// primed node, with no reset in between): every node must hold the
// same lines in the same dirty state afterwards, and the measured
// pass that follows must report bit-identical bandwidth and counters.
func TestPrimeRunMatchesTimedPrime(t *testing.T) {
	machines := []struct {
		name string
		mk   func() machine.Machine
	}{
		{"8400", func() machine.Machine { return machine.NewDEC8400(4) }},
		{"t3d", func() machine.Machine { return machine.NewT3D(4) }},
		{"t3e", func() machine.Machine { return machine.NewT3E(4) }},
	}
	base := machine.LocalBase(0)
	patterns := []access.Pattern{
		{Base: base, WorkingSet: 64 * units.KB, Stride: 1},
		{Base: base, WorkingSet: 512 * units.KB, Stride: 7},
		{Base: base, WorkingSet: 8 * units.MB, Stride: 16},
		// Node 1's memory: remote loads on the Crays.
		{Base: machine.LocalBase(1), WorkingSet: 32 * units.KB, Stride: 2},
	}
	dirty := func(m machine.Machine, p access.Pattern) {
		half := p
		half.Stride, half.WorkingSet = 1, p.WorkingSet/2
		other := half
		other.Base += access.Addr(half.WorkingSet)
		StoreConst(m, 1, other)
		StoreConst(m, 0, half)
		LocalCopy(m, 0, access.CopyPattern{SrcBase: base + 1<<28, DstBase: p.Base + access.Addr(8*units.KB),
			WorkingSet: 16 * units.KB, LoadStride: 5, StoreStride: 1})
	}
	for _, mc := range machines {
		for pi, p := range patterns {
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("%s/p%d/warm=%v", mc.name, pi, warm)
				t.Run(name, func(t *testing.T) {
					tagOnly, timed := mc.mk(), mc.mk()
					for _, m := range []machine.Machine{tagOnly, timed} {
						m.ColdReset()
						if warm {
							dirty(m, p)
						}
					}
					prime(tagOnly.Node(0), p)
					timedPrime(timed.Node(0), p)
					comparePrimed(t, tagOnly, timed, p)
					for _, m := range []machine.Machine{tagOnly, timed} {
						m.ResetTiming()
					}
					w1, w2 := measure(tagOnly.Node(0), p), measure(timed.Node(0), p)
					bw1 := units.BW(units.Bytes(w1)*units.Word, tagOnly.Node(0).Now())
					bw2 := units.BW(units.Bytes(w2)*units.Word, timed.Node(0).Now())
					if bw1 != bw2 {
						t.Fatalf("measured bandwidth after tag-only prime %v, after timed prime %v", bw1, bw2)
					}
					c1, c2 := tagOnly.Probe().Capture().Counters, timed.Probe().Capture().Counters
					if !reflect.DeepEqual(c1, c2) {
						t.Fatalf("measured counters differ:\ntag-only:\n%s\ntimed:\n%s",
							c1.NonZero().Table(), c2.NonZero().Table())
					}
				})
			}
		}
	}
}

// comparePrimed checks that every node of a and b holds the same lines
// of p's working set, dirty in the same places.
func comparePrimed(t *testing.T, a, b machine.Machine, p access.Pattern) {
	t.Helper()
	held := 0
	for i := 0; i < a.NumNodes(); i++ {
		na, nb := a.Node(i), b.Node(i)
		for off := units.Bytes(0); off < p.WorkingSet; off += 32 {
			addr := p.Base + access.Addr(off)
			if ha, hb := na.Holds(addr), nb.Holds(addr); ha != hb {
				t.Fatalf("node %d line %#x: held %v after tag-only prime, %v after timed", i, addr, ha, hb)
			} else if ha {
				held++
			}
			if da, db := na.HoldsDirty(addr), nb.HoldsDirty(addr); da != db {
				t.Fatalf("node %d line %#x: dirty %v after tag-only prime, %v after timed", i, addr, da, db)
			}
		}
	}
	if held == 0 && p.Base == machine.LocalBase(0) {
		t.Fatalf("prime left no line of the working set resident")
	}
}

// TestPrimeRunKeepsFreeRideState covers the one piece of timing state
// that gates a functional effect: the 8400's DRAM free ride, which
// skips the coherence snoop when a fill repeats the node's previous
// memory line. The tag-only prime must move that state exactly as the
// timed prime does, or the store prime that follows it in LocalCopy
// snoops (or skips) a line another node holds dirty differently.
func TestPrimeRunKeepsFreeRideState(t *testing.T) {
	const l3 = access.Addr(4 * units.MB)
	y := machine.LocalBase(0) + 1<<24
	setup := func(m machine.Machine) {
		m.ColdReset()
		n0, n1 := m.Node(0), m.Node(1)
		// Node 0's last memory fill is line y.
		n0.LoadRun(y, 8, 1)
		// Node 1 dirties y, pushes it out of its L2 (three more
		// stores to y's 3-way set) and then out of its L3 (a store
		// to the same direct-mapped set); the dirty L3 victim's
		// write-back invalidates node 0's copy. Node 1 then dirties
		// y again from memory.
		n1.StoreRun(y, 8, 1)
		n1.StoreRun(y+32<<10, 32<<10, 3)
		n1.StoreRun(y+l3, 8, 1)
		n1.StoreRun(y, 8, 1)
		n1.FlushWrites()
		if n0.Holds(y) || !n1.HoldsDirty(y) {
			t.Fatalf("setup: node 0 holds y %v, node 1 holds y dirty %v; want false, true",
				n0.Holds(y), n1.HoldsDirty(y))
		}
	}
	cp := access.CopyPattern{SrcBase: machine.LocalBase(0), DstBase: y,
		WorkingSet: 64 * units.KB, LoadStride: 1, StoreStride: 1}
	tagOnly, timed := machine.NewDEC8400(4), machine.NewDEC8400(4)
	setup(tagOnly)
	setup(timed)

	bw1 := LocalCopy(tagOnly, 0, cp)
	// LocalCopy with the timed prime in place of the tag-only one.
	n := timed.Node(0)
	timedPrime(n, access.Pattern{Base: cp.SrcBase, WorkingSet: cp.WorkingSet, Stride: cp.LoadStride})
	primeStore(n, access.Pattern{Base: cp.DstBase, WorkingSet: cp.WorkingSet, Stride: cp.StoreStride})
	timed.ResetTiming()
	words := n.CopyPass(cp, measureWords)
	n.FlushWrites()
	bw2 := units.BW(units.Bytes(words)*units.Word, n.Now())

	if tagOnly.Node(1).HoldsDirty(y) != timed.Node(1).HoldsDirty(y) {
		t.Fatalf("node 1 holds y dirty: %v after tag-only prime, %v after timed",
			tagOnly.Node(1).HoldsDirty(y), timed.Node(1).HoldsDirty(y))
	}
	comparePrimed(t, tagOnly, timed, access.Pattern{Base: y, WorkingSet: cp.WorkingSet})
	if bw1 != bw2 {
		t.Fatalf("copy bandwidth %v after tag-only prime, %v after timed", bw1, bw2)
	}
}
