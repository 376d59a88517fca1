// Package report regenerates the paper's evaluation artifacts: every
// figure (1-17) and the headline comparison tables, each annotated
// with the value the paper reports next to the value the simulation
// measures. cmd/figures drives it; EXPERIMENTS.md records its output.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Row is one paper-vs-measured comparison.
type Row struct {
	Experiment string
	Metric     string
	Paper      float64
	Measured   float64
	Unit       string
}

// Dev returns the relative deviation from the paper value.
func (r Row) Dev() float64 {
	if r.Paper == 0 {
		return 0
	}
	return (r.Measured - r.Paper) / r.Paper
}

func (r Row) String() string {
	return fmt.Sprintf("| %-8s | %-46s | %8.0f | %8.1f | %+6.0f%% |",
		r.Experiment, r.Metric, r.Paper, r.Measured, r.Dev()*100)
}

// Table renders rows as a markdown table.
func Table(rows []Row) string {
	var b strings.Builder
	b.WriteString("| Exp      | Metric                                         |    Paper | Measured |    Dev |\n")
	b.WriteString("|----------|------------------------------------------------|----------|----------|--------|\n")
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Machines builds the three systems at the paper's 4-processor scale.
func Machines() map[string]machine.Machine {
	return map[string]machine.Machine{
		"8400": machine.NewDEC8400(4),
		"t3d":  machine.NewT3D(4),
		"t3e":  machine.NewT3E(4),
	}
}

// Factories returns constructors for the three systems, keyed like
// Machines. Sweep pools use these to build one private instance per
// worker.
func Factories() map[string]func() machine.Machine {
	return map[string]func() machine.Machine{
		"8400": func() machine.Machine { return machine.NewDEC8400(4) },
		"t3d":  func() machine.Machine { return machine.NewT3D(4) },
		"t3e":  func() machine.Machine { return machine.NewT3E(4) },
	}
}

// Pools builds one sweep pool per machine at the given width.
func Pools(workers int) map[string]*sweep.Pool {
	ps := make(map[string]*sweep.Pool)
	for k, f := range Factories() {
		ps[k] = sweep.NewPool(f, workers)
	}
	return ps
}

// TracedPools is Pools with event tracing enabled on every worker's
// machine (the `figures -trace` path; scripts/bench.sh measures its
// overhead against the default untraced pools).
func TracedPools(workers int) map[string]*sweep.Pool {
	ps := make(map[string]*sweep.Pool)
	for k, f := range Factories() {
		f := f
		traced := func() machine.Machine {
			m := f()
			m.Probe().EnableTrace(0)
			return m
		}
		ps[k] = sweep.NewPool(traced, workers)
	}
	return ps
}

// Names returns the machine keys in sorted order. Every loop over
// Machines() must iterate these, never the map itself, so figures,
// CSV artifacts, and progress logs come out byte-for-byte identical
// run to run (simlint's determinism analyzer enforces the map side).
func Names(ms map[string]machine.Machine) []string {
	names := make([]string, 0, len(ms))
	//simlint:ignore determinism keys are sorted immediately below
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// PoolNames returns the pool keys in sorted order, for the same
// reason Names exists: every loop over Pools() must be ordered so
// artifacts and logs are identical run to run.
func PoolNames(ps map[string]*sweep.Pool) []string {
	names := make([]string, 0, len(ps))
	//simlint:ignore determinism keys are sorted immediately below
	for k := range ps {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// point measures one headline value as a one-cell surface under
// pattern, through the sweep pipeline — ColdReset, then kernel on a
// worker machine — so a warm run serves Tables A and B without
// simulating.
func point(p *sweep.Pool, pattern, title string, ws units.Bytes, stride int, kernel bench.Cell) float64 {
	strides, wss := []int{stride}, []units.Bytes{ws}
	key := store.NewKey(p.Machine().Calibration(), pattern, strides, wss)
	s, err := bench.Sweep(p, key, title, strides, wss, kernel)
	if err != nil {
		return 0
	}
	return s.BW[0][0].MBps()
}

// loadPoint measures one LoadSum plateau point.
func loadPoint(p *sweep.Pool, ws units.Bytes, stride int) float64 {
	return point(p, store.PatternLoad.With("pt", 0), "headline load point", ws, stride,
		func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error) {
			return bench.LoadSum(m, 0, access.Pattern{
				Base: machine.LocalBase(0), WorkingSet: ws, Stride: stride}), nil
		})
}

// copyPoint measures one local copy point at a large working set. The
// pattern carries both strides; the stride axis holds the load
// stride.
func copyPoint(p *sweep.Pool, loadStride, storeStride int) float64 {
	variant := fmt.Sprintf("pt-l%d-s%d", loadStride, storeStride)
	return point(p, store.PatternCopy.With(variant, 0), "headline copy point", 8*units.MB, loadStride,
		func(m machine.Machine, ws units.Bytes, _ int) (units.BytesPerSec, error) {
			base := machine.LocalBase(0)
			return bench.LocalCopy(m, 0, access.CopyPattern{
				SrcBase: base, DstBase: base + access.Addr(1<<30) + access.Addr(2*units.MB) + 128,
				WorkingSet: ws, LoadStride: loadStride, StoreStride: storeStride,
			}), nil
		})
}

// transferPoint measures one remote transfer point, keyed like
// copyPoint.
func transferPoint(p *sweep.Pool, mode machine.Mode, loadStride, storeStride int) float64 {
	partner := machine.PreferredPartner(p.Machine())
	variant := fmt.Sprintf("%s-pt-l%d-s%d", mode, loadStride, storeStride)
	return point(p, store.PatternRemoteCopy.With(variant, 0, partner), "headline transfer point", 8*units.MB, loadStride,
		func(m machine.Machine, ws units.Bytes, _ int) (units.BytesPerSec, error) {
			return bench.Transfer(m, 0, partner, access.CopyPattern{
				SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(partner),
				WorkingSet: ws, LoadStride: loadStride, StoreStride: storeStride,
			}, machine.Options{Mode: mode})
		})
}

// HeadlineLocal produces Table A: the local plateau numbers of §5.
// Points route through the pools so a store-backed run serves them
// warm.
func HeadlineLocal(ps map[string]*sweep.Pool) []Row {
	dec, t3d, t3e := ps["8400"], ps["t3d"], ps["t3e"]
	// The streams-disabled row measures a fourth calibration; it gets
	// its own single-worker pool sharing the store.
	nostreams := sweep.Seq(machine.NewT3ENoStreams(1))
	if t3e != nil {
		nostreams.SetStore(t3e.Store())
	}
	return []Row{
		{"Fig 1", "8400 L1 contiguous load", 1100, loadPoint(dec, 4*units.KB, 1), "MB/s"},
		{"Fig 1", "8400 L2 contiguous load", 700, loadPoint(dec, 64*units.KB, 1), "MB/s"},
		{"Fig 1", "8400 L3 contiguous load", 600, loadPoint(dec, 2*units.MB, 1), "MB/s"},
		{"Fig 1", "8400 L3 strided load (16)", 120, loadPoint(dec, 2*units.MB, 16), "MB/s"},
		{"Fig 1", "8400 DRAM contiguous load", 150, loadPoint(dec, 8*units.MB, 1), "MB/s"},
		{"Fig 1", "8400 DRAM strided load (16)", 28, loadPoint(dec, 8*units.MB, 16), "MB/s"},
		{"Fig 3", "T3D L1 contiguous load", 600, loadPoint(t3d, 4*units.KB, 1), "MB/s"},
		{"Fig 3", "T3D DRAM contiguous load (read-ahead)", 195, loadPoint(t3d, 8*units.MB, 1), "MB/s"},
		{"Fig 3", "T3D DRAM strided load (16)", 43, loadPoint(t3d, 8*units.MB, 16), "MB/s"},
		{"Fig 6", "T3E L1 contiguous load", 1100, loadPoint(t3e, 4*units.KB, 1), "MB/s"},
		{"Fig 6", "T3E L2 contiguous load", 700, loadPoint(t3e, 64*units.KB, 1), "MB/s"},
		{"Fig 6", "T3E DRAM contiguous load (streams)", 430, loadPoint(t3e, 8*units.MB, 1), "MB/s"},
		{"Fig 6", "T3E DRAM strided load (16)", 42, loadPoint(t3e, 8*units.MB, 16), "MB/s"},
		{"§5.5", "T3E DRAM contiguous, streams disabled", 120,
			loadPoint(nostreams, 8*units.MB, 1), "MB/s"},
	}
}

// HeadlineCopy produces Table B: the copy and remote-transfer numbers
// of §6 and §9.
func HeadlineCopy(ps map[string]*sweep.Pool) []Row {
	dec, t3d, t3e := ps["8400"], ps["t3d"], ps["t3e"]
	return []Row{
		{"Fig 9", "8400 contiguous local copy", 57, copyPoint(dec, 1, 1), "MB/s"},
		{"Fig 9", "8400 strided local copy (16)", 18, copyPoint(dec, 1, 16), "MB/s"},
		{"Fig 10", "T3D contiguous local copy", 100, copyPoint(t3d, 1, 1), "MB/s"},
		{"Fig 10", "T3D strided-store local copy (16)", 70, copyPoint(t3d, 1, 16), "MB/s"},
		{"Fig 10", "T3D strided-load local copy (16)", 45, copyPoint(t3d, 16, 1), "MB/s"},
		{"Fig 11", "T3E contiguous local copy", 200, copyPoint(t3e, 1, 1), "MB/s"},
		{"Fig 12", "8400 strided remote pull (16)", 22, transferPoint(dec, machine.Fetch, 16, 1), "MB/s"},
		{"Fig 13", "T3D contiguous deposit", 125, transferPoint(t3d, machine.Deposit, 1, 1), "MB/s"},
		{"Fig 13", "T3D strided deposit (16)", 55, transferPoint(t3d, machine.Deposit, 1, 16), "MB/s"},
		{"Fig 14", "T3E contiguous transfer", 350, transferPoint(t3e, machine.Fetch, 1, 1), "MB/s"},
		{"Fig 14", "T3E strided get (16)", 140, transferPoint(t3e, machine.Fetch, 16, 1), "MB/s"},
		{"Fig 14", "T3E even-strided put (16)", 70, transferPoint(t3e, machine.Deposit, 1, 16), "MB/s"},
	}
}

// HeadlineFFT produces Table C: the §7 application results at 256^2.
func HeadlineFFT(ms map[string]machine.Machine, cs map[string]*core.Characterization) ([]Row, error) {
	var rows []Row
	targets := map[string]float64{"t3d": 133, "8400": 220, "t3e": 330}
	names := map[string]string{"t3d": "T3D", "8400": "8400", "t3e": "T3E"}
	for _, k := range Names(ms) {
		r, err := fft.Run2D(ms[k], 256, fft.Options{Char: cs[k]})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{"Fig 15", names[k] + " 2D-FFT 256^2 overall", targets[k], r.MFlops, "MFlop/s"})
	}
	return rows, nil
}

// Figures15to17 sweeps the FFT study over the paper's problem sizes
// and renders the three figures as text tables.
func Figures15to17(ms map[string]machine.Machine, cs map[string]*core.Characterization, sizes []int) (string, error) {
	keys := Names(ms)
	var b strings.Builder
	results := map[string][]fft.Result{}
	for _, k := range keys {
		for _, n := range sizes {
			r, err := fft.Run2D(ms[k], n, fft.Options{Char: cs[k]})
			if err != nil {
				return "", err
			}
			results[k] = append(results[k], r)
		}
	}
	section := func(title, unit string, get func(fft.Result) float64) {
		fmt.Fprintf(&b, "%s [%s], 4 processors\n", title, unit)
		b.WriteString("   n:")
		for _, n := range sizes {
			fmt.Fprintf(&b, "%8d", n)
		}
		b.WriteByte('\n')
		for _, k := range keys {
			fmt.Fprintf(&b, "%5s", results[k][0].Machine[:5])
			for i := range sizes {
				fmt.Fprintf(&b, "%8.0f", get(results[k][i]))
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	section("Figure 15: overall application performance", "MFlop/s total",
		func(r fft.Result) float64 { return r.MFlops })
	section("Figure 16: local computation performance", "MFlop/s total",
		func(r fft.Result) float64 { return r.ComputeMFlops })
	section("Figure 17: communication performance", "MByte/s total",
		func(r fft.Result) float64 { return r.CommMBps })
	return b.String(), nil
}

// LoadFigure regenerates one of the load surfaces (Figures 1, 3, 6).
// fast fills the analytically confident cells from the model and
// returns how many cells were simulated and the grid size alongside
// the surface; a full sweep returns zero for both.
func LoadFigure(p *sweep.Pool, maxWS units.Bytes, fast bool) (*surface.Surface, int, int) {
	strides, wss := surface.PaperStrides, surface.WorkingSets(units.KB/2, maxWS)
	if !fast {
		return bench.LoadSurface(p, 0, strides, wss), 0, 0
	}
	s, simulated := bench.LoadSurfacePruned(p, 0, strides, wss)
	return s, simulated, len(strides) * len(wss)
}

// TransferFigure regenerates one of the remote transfer surfaces
// (Figures 2, 4, 5, 7, 8), honouring fast as LoadFigure does.
func TransferFigure(p *sweep.Pool, mode machine.Mode, maxWS units.Bytes, fast bool) (*surface.Surface, int, int, error) {
	partner := machine.PreferredPartner(p.Machine())
	strides, wss := surface.PaperStrides, surface.WorkingSets(units.KB/2, maxWS)
	if !fast {
		s, err := bench.TransferSurface(p, 0, partner, mode, strides, wss)
		return s, 0, 0, err
	}
	s, simulated, err := bench.TransferSurfacePruned(p, 0, partner, mode, strides, wss)
	if err != nil {
		return nil, 0, 0, err
	}
	return s, simulated, len(strides) * len(wss), nil
}

// CopyFigure regenerates one of the local copy figures (9-11).
func CopyFigure(p *sweep.Pool) (stridedLoads, stridedStores *surface.Surface) {
	return bench.CopyCurve(p, 0, 64*units.MB, surface.CopyStrides, true),
		bench.CopyCurve(p, 0, 64*units.MB, surface.CopyStrides, false)
}

// RemoteCopyFigure regenerates one of the remote copy figures (12-14).
func RemoteCopyFigure(p *sweep.Pool) ([]*surface.Surface, error) {
	partner := machine.PreferredPartner(p.Machine())
	var out []*surface.Surface
	if _, ok := p.Machine().(*machine.SMP); ok {
		c, err := bench.TransferCurve(p, 0, partner, 64*units.MB, surface.CopyStrides,
			machine.Fetch, true, false)
		if err != nil {
			return nil, err
		}
		return []*surface.Surface{c}, nil
	}
	a, err := bench.TransferCurve(p, 0, partner, 64*units.MB, surface.CopyStrides,
		machine.Deposit, true, false)
	if err != nil {
		return nil, err
	}
	bcurve, err := bench.TransferCurve(p, 0, partner, 64*units.MB, surface.CopyStrides,
		machine.Deposit, false, false)
	if err != nil {
		return nil, err
	}
	out = append(out, a, bcurve)
	// The fetch curve (figures 4/7 cross-check at large WS).
	if c, err := bench.TransferCurve(p, 0, partner, 64*units.MB, surface.CopyStrides,
		machine.Fetch, true, false); err == nil {
		out = append(out, c)
	}
	return out, nil
}
