package main

import (
	"strings"

	"repro/internal/access"
	"repro/internal/analytic"
	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// surfaceSpec names one of the paper's eight surfaces (Figures 1-8).
type surfaceSpec struct {
	id      string // "load/8400", "fetch/t3d", ...
	machine string // report.Factories key
	load    bool
	mode    machine.Mode
}

// loadSurfaces are Figures 1, 3 and 6; transferSurfaces are Figures 2,
// 4, 5, 7 and 8. Both lists are in figure order.
var (
	loadSurfaces = []surfaceSpec{
		{id: "load/8400", machine: "8400", load: true},
		{id: "load/t3d", machine: "t3d", load: true},
		{id: "load/t3e", machine: "t3e", load: true},
	}
	transferSurfaces = []surfaceSpec{
		{id: "fetch/8400", machine: "8400", mode: machine.Fetch},
		{id: "fetch/t3d", machine: "t3d", mode: machine.Fetch},
		{id: "deposit/t3d", machine: "t3d", mode: machine.Deposit},
		{id: "fetch/t3e", machine: "t3e", mode: machine.Fetch},
		{id: "deposit/t3e", machine: "t3e", mode: machine.Deposit},
	}
)

// allSurfaces are the eight paper surfaces: the load surfaces, then
// the transfer surfaces.
func allSurfaces() []surfaceSpec {
	return append(append([]surfaceSpec(nil), loadSurfaces...), transferSurfaces...)
}

// paperWorkingSets is the working-set axis of Figures 1-8 as the
// benchmark sweeps it: 0.5 KB to 8 MB.
func paperWorkingSets() []units.Bytes { return surface.WorkingSets(units.KB/2, 8*units.MB) }

// request asks bench for the whole surface over the grid, exactly as
// cmd/figures does.
func (sp surfaceSpec) request(p *sweep.Pool, strides []int, wss []units.Bytes) (*surface.Surface, error) {
	if sp.load {
		return bench.LoadSurface(p, 0, strides, wss), nil
	}
	return bench.TransferSurface(p, 0, machine.PreferredPartner(p.Machine()), sp.mode, strides, wss)
}

// requestPruned is request through the model-guided fast path
// (figures -fast); it also returns how many cells were simulated.
func (sp surfaceSpec) requestPruned(p *sweep.Pool, strides []int, wss []units.Bytes) (*surface.Surface, int, error) {
	if sp.load {
		s, n := bench.LoadSurfacePruned(p, 0, strides, wss)
		return s, n, nil
	}
	return bench.TransferSurfacePruned(p, 0, machine.PreferredPartner(p.Machine()), sp.mode, strides, wss)
}

// storeKey is the key under which the pruned sweep of the surface on
// machine m over the grid is stored.
func (sp surfaceSpec) storeKey(m machine.Machine, strides []int, wss []units.Bytes) store.Key {
	cal := m.Calibration()
	if sp.load {
		return bench.LoadSurfaceKey(cal, 0, strides, wss)
	}
	return bench.TransferSurfaceKey(cal, 0, machine.PreferredPartner(m), sp.mode, strides, wss)
}

// modelBW is the closed-form model's bandwidth for one cell, the value
// a pruned sweep fills a cell it does not simulate with.
func (sp surfaceSpec) modelBW(md *analytic.Model, ws units.Bytes, stride int) (units.BytesPerSec, error) {
	if sp.load {
		return md.LoadBW(ws, stride), nil
	}
	return md.TransferBW(sp.mode, ws, stride)
}

// cell measures one grid cell on m the way the bench sweep kernels do
// (LoadSum for load surfaces; Transfer with the stride on the remote
// side for transfer surfaces).
func (sp surfaceSpec) cell(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error) {
	if sp.load {
		return bench.LoadSum(m, 0, access.Pattern{Base: machine.LocalBase(0), WorkingSet: ws, Stride: stride}), nil
	}
	partner := machine.PreferredPartner(m)
	cp := access.CopyPattern{
		SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(partner),
		WorkingSet: ws, LoadStride: 1, StoreStride: 1,
	}
	if sp.mode == machine.Deposit {
		cp.StoreStride = stride
	} else {
		cp.LoadStride = stride
	}
	return bench.Transfer(m, 0, partner, cp, machine.Options{Mode: sp.mode})
}

// poolWidth is the sweep pool width, memserve's batch worker count and
// GOMAXPROCS: the benchmark host's two CPUs, fixed so figures compare
// across hosts.
const poolWidth = 2

// newPools builds one width-poolWidth pool per machine the specs use
// and builds every worker's machine, so construction is set-up rather
// than measured work.
func newPools(specs []surfaceSpec) map[string]*sweep.Pool {
	ps := make(map[string]*sweep.Pool)
	fs := report.Factories()
	for _, sp := range specs {
		if _, ok := ps[sp.machine]; ok {
			continue
		}
		p := sweep.NewPool(fs[sp.machine], poolWidth)
		_ = p.Run(poolWidth, func(machine.Machine, int) error { return nil })
		ps[sp.machine] = p
	}
	return ps
}

// counters are the simulated event counts the reference pins per cell.
type counters struct {
	loads, l1Misses, dramAccesses, busTransactions, torusBytes int64
}

func (c *counters) add(o counters) {
	c.loads += o.loads
	c.l1Misses += o.l1Misses
	c.dramAccesses += o.dramAccesses
	c.busTransactions += o.busTransactions
	c.torusBytes += o.torusBytes
}

// countersOf folds a machine's probe snapshot into the pinned counts:
// loads issued by every node, L1 read and write misses, DRAM accesses
// (per-node and shared memory), bus transactions and torus bytes.
func countersOf(snap probe.Snapshot) counters {
	var c counters
	for _, v := range snap {
		n := v.Name
		switch {
		case strings.HasPrefix(n, "node") && strings.HasSuffix(n, ".loads") && strings.Count(n, ".") == 1:
			c.loads += v.Count
		case strings.HasSuffix(n, ".l1.read_misses"), strings.HasSuffix(n, ".l1.write_misses"):
			c.l1Misses += v.Count
		case strings.HasSuffix(n, ".dram.accesses"):
			c.dramAccesses += v.Count
		case n == "bus.transactions":
			c.busTransactions += v.Count
		case n == "torus.bytes":
			c.torusBytes += int64(v.Bytes)
		}
	}
	return c
}
