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
// same lines in the same dirty state afterwards, with the same tag
// words, LRU stamps, cache clocks and dirty-line counts, and the
// measured pass that follows must report bit-identical bandwidth and
// counters. On the 8400 a third start has the second node's only
// dirty lines inside the run, so the run itself cleans them: the
// per-run snoop check must see them and keep snooping while they go.
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
	// peer dirties one word in each of the first 64 memory lines the
	// prime touches, on node 1 only.
	peer := func(m machine.Machine, p access.Pattern) {
		m.Node(1).StoreRun(p.Base, max(64, 8*int64(p.Stride)), 64)
		m.Node(1).FlushWrites()
	}
	for _, mc := range machines {
		for pi, p := range patterns {
			type start struct {
				name  string
				setup func(machine.Machine, access.Pattern)
			}
			starts := []start{{"warm=false", nil}, {"warm=true", dirty}}
			if mc.name == "8400" {
				starts = append(starts, start{"peer", peer})
			}
			for _, st := range starts {
				name := fmt.Sprintf("%s/p%d/%s", mc.name, pi, st.name)
				t.Run(name, func(t *testing.T) {
					tagOnly, timed := mc.mk(), mc.mk()
					for _, m := range []machine.Machine{tagOnly, timed} {
						m.ColdReset()
						if st.setup != nil {
							st.setup(m, p)
						}
					}
					if st.name == "peer" && !tagOnly.Node(1).HasDirty() {
						t.Fatal("setup left node 1 clean")
					}
					prime(tagOnly.Node(0), p)
					timedPrime(timed.Node(0), p)
					if st.name == "peer" && (tagOnly.Node(1).HasDirty() || timed.Node(1).HasDirty()) {
						t.Fatalf("node 1 still dirty after the prime: tag-only %v, timed %v",
							tagOnly.Node(1).HasDirty(), timed.Node(1).HasDirty())
					}
					comparePrimed(t, tagOnly, timed, p)
					for i := 0; i < tagOnly.NumNodes(); i++ {
						compareNodeState(t, tagOnly.Node(i), timed.Node(i))
					}
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

// TestPrimeStoreRunMatchesStoreRun pins the tag-only store prime to
// the timed StoreRun on all three machines. Each run starts from a
// cold machine and from a dirty multi-node one, and covers steps of
// 0, 1 and 3 words (the same-line fold), a step with no same-line
// repeats, unaligned and line-crossing starts, a run long enough to
// push dirty victims out of the 8400's L3, and a run into another
// node's memory. Afterwards every node must hold the same lines in
// the same dirty state, node 0's caches and store-run detector must
// match word for word, and a timed store-and-load pass must report
// bit-identical time and counters. On the 8400 a third start has
// node 1's only dirty lines inside the run, which cleans them.
func TestPrimeStoreRunMatchesStoreRun(t *testing.T) {
	machines := []struct {
		name string
		mk   func() machine.Machine
	}{
		{"8400", func() machine.Machine { return machine.NewDEC8400(4) }},
		{"t3d", func() machine.Machine { return machine.NewT3D(4) }},
		{"t3e", func() machine.Machine { return machine.NewT3E(4) }},
	}
	base := machine.LocalBase(0) + 1<<20
	// alias sits one 8400 L3 (and a whole number of L2 set spans)
	// above base, so stores there conflict with the prime's lines.
	alias := base + access.Addr(4*units.MB)
	type run struct {
		start       access.Addr
		step, count int64
	}
	runs := []run{
		{base, 8, 4096},
		{base + 8, 0, 64},
		{base + 8, 24, 3000},
		{base + 56, 24, 3000},
		{base + 40, 8, 40000},
		{base, 128, 4096},
		{base + 8, 8, 600000},
		{machine.LocalBase(1) + 16, 8, 2048},
		{machine.LocalBase(1) + 32, 24, 2048},
	}
	// dirty leaves node 0 with dirty lines that the run's stores
	// evict, node 1 holding some of the run's lines clean and others
	// dirty, and node 1 holding the alias lines clean while node 0
	// holds them dirty.
	dirty := func(m machine.Machine, r run) {
		n0, n1 := m.Node(0), m.Node(1)
		start := r.start &^ 63
		n1.PrimeRun(alias, 8, 8192)
		n0.StoreRun(alias, 8, 8192)
		n0.PrimeRun(start+access.Addr(4*units.KB), 8, 1024)
		n1.PrimeRun(start, 16, 512)
		n1.StoreRun(start+access.Addr(8*units.KB), 8, 2048)
		n1.StoreRun(start+64, 32, 64)
		n0.FlushWrites()
		n1.FlushWrites()
	}
	// peer dirties, on node 1 only, one word at the start of each of
	// the first 64 memory lines the run stores into.
	peer := func(m machine.Machine, r run) {
		step := max(64, r.step)
		m.Node(1).StoreRun(r.start&^63, step, min(64, r.step*(r.count-1)/step+1))
		m.Node(1).FlushWrites()
	}
	for _, mc := range machines {
		for ri, r := range runs {
			type start struct {
				name  string
				setup func(machine.Machine, run)
			}
			starts := []start{{"warm=false", nil}, {"warm=true", dirty}}
			if mc.name == "8400" {
				starts = append(starts, start{"peer", peer})
			}
			for _, st := range starts {
				name := fmt.Sprintf("%s/r%d/%s", mc.name, ri, st.name)
				t.Run(name, func(t *testing.T) {
					tagOnly, timed := mc.mk(), mc.mk()
					for _, m := range []machine.Machine{tagOnly, timed} {
						m.ColdReset()
						if st.setup != nil {
							st.setup(m, r)
						}
					}
					if st.name == "peer" && !tagOnly.Node(1).HasDirty() {
						t.Fatal("setup left node 1 clean")
					}
					tagOnly.Node(0).PrimeStoreRun(r.start, r.step, r.count)
					tagOnly.Node(0).FlushWrites()
					timed.Node(0).StoreRun(r.start, r.step, r.count)
					timed.Node(0).FlushWrites()
					if st.name == "peer" && (tagOnly.Node(1).HasDirty() || timed.Node(1).HasDirty()) {
						t.Fatalf("node 1 still dirty after the run: tag-only %v, timed %v",
							tagOnly.Node(1).HasDirty(), timed.Node(1).HasDirty())
					}

					span := units.Bytes(r.step*(r.count-1)) + 128
					for _, p := range []access.Pattern{
						{Base: r.start &^ 63, WorkingSet: span},
						{Base: alias, WorkingSet: 64 * units.KB},
					} {
						comparePrimed(t, tagOnly, timed, p)
					}
					compareNodeState(t, tagOnly.Node(0), timed.Node(0))

					for _, m := range []machine.Machine{tagOnly, timed} {
						m.ResetTiming()
						n := m.Node(0)
						n.StoreRun(r.start, r.step, min(r.count, measureWords))
						n.FlushWrites()
						n.LoadRun(r.start, r.step, min(r.count, measureWords))
					}
					if t1, t2 := tagOnly.Node(0).Now(), timed.Node(0).Now(); t1 != t2 {
						t.Fatalf("measured pass took %v after the tag-only prime, %v after the timed one", t1, t2)
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

// compareNodeState checks, field by field, the node state a prime
// must reproduce: every cache's tag words, LRU stamps, LRU clock and
// dirty-line count, and the write-combine store-run detector. The
// fields are unexported, so they are read through reflection.
func compareNodeState(t *testing.T, a, b *node.Node) {
	t.Helper()
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for _, f := range []string{"storeRunNext", "storeRunLen"} {
		if x, y := va.FieldByName(f).Int(), vb.FieldByName(f).Int(); x != y {
			t.Fatalf("%s: %d after tag-only prime, %d after timed", f, x, y)
		}
	}
	ca, cb := va.FieldByName("caches"), vb.FieldByName("caches")
	for l := 0; l < ca.Len(); l++ {
		la, lb := ca.Index(l).Elem(), cb.Index(l).Elem()
		for _, f := range []string{"tick", "dirtyLines"} {
			if x, y := la.FieldByName(f).Int(), lb.FieldByName(f).Int(); x != y {
				t.Fatalf("level %d %s: %d after tag-only prime, %d after timed", l, f, x, y)
			}
		}
		for _, f := range []string{"tags", "lastUse"} {
			sa, sb := la.FieldByName(f), lb.FieldByName(f)
			for i := 0; i < sa.Len(); i++ {
				if x, y := sa.Index(i).Int(), sb.Index(i).Int(); x != y {
					t.Fatalf("level %d %s[%d]: %#x after tag-only prime, %#x after timed", l, f, i, x, y)
				}
			}
		}
	}
}
