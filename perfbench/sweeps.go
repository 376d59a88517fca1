package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// sweepSetups is how many times a sweep run sets up; setup_s is the
// median.
const sweepSetups = 15

// sweepGrid is the grid a sweep run covers: the seed's strides for
// each kind of surface and the full working-set axis.
type sweepGrid struct {
	load, transfer []int
	wss            []units.Bytes
}

func newSweepGrid(seed int64) sweepGrid {
	load, transfer := pickStrides(seed)
	return sweepGrid{load: load, transfer: transfer, wss: paperWorkingSets()}
}

// strides is the stride axis of sp's kind.
func (g sweepGrid) strides(sp surfaceSpec) []int {
	if sp.load {
		return g.load
	}
	return g.transfer
}

// cells is the number of grid cells of one request for sp.
func (g sweepGrid) cells(sp surfaceSpec) int { return len(g.strides(sp)) * len(g.wss) }

// passes is a run of whole passes, each requesting every surface once
// over the seed's strides.
type passes struct {
	n        int
	elapsed  time.Duration
	reqLat   []time.Duration // one per surface request
	passLat  []time.Duration // one per pass
	surfaces [][]*surface.Surface
}

// runPasses requests whole passes through bench's surface functions
// until the elapsed time reaches at least d.
func runPasses(specs []surfaceSpec, pools map[string]*sweep.Pool, g sweepGrid, d time.Duration) (passes, error) {
	var ps passes
	start := time.Now()
	for ps.n == 0 || time.Since(start) < d {
		p0 := time.Now()
		row := make([]*surface.Surface, len(specs))
		for i, sp := range specs {
			t0 := time.Now()
			s, err := sp.request(pools[sp.machine], g.strides(sp), g.wss)
			if err != nil {
				return ps, fmt.Errorf("%s: %w", sp.id, err)
			}
			ps.reqLat = append(ps.reqLat, time.Since(t0))
			row[i] = s
		}
		ps.passLat = append(ps.passLat, time.Since(p0))
		ps.surfaces = append(ps.surfaces, row)
		ps.n++
	}
	ps.elapsed = time.Since(start)
	return ps, nil
}

// check compares every surface of every pass with the reference.
func (ps passes) check(specs []surfaceSpec, ref reference, o *outcome) {
	for _, row := range ps.surfaces {
		for i, s := range row {
			checked, failed := ref.checkSurface(specs[i].id, s)
			o.count(int64(checked), int64(failed))
		}
	}
}

// runSweep runs the sweep workload: cold surfaces of all eight figures
// over the seed's strides and the full working-set axis, on store-less
// width-2 pools.
func runSweep(cfg config) (*outcome, error) {
	specs := allSurfaces()
	g := newSweepGrid(cfg.seed)
	fmt.Fprintf(cfg.log, "sweep seed %d: load strides %v, transfer strides %v, %d working sets, %d surfaces per pass\n",
		cfg.seed, g.load, g.transfer, len(g.wss), len(specs))

	ref, err := parseReference(referenceText)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var pools map[string]*sweep.Pool
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		pools = newPools(specs)
		setups = append(setups, time.Since(t0).Seconds())
		// Collect the previous set-up's garbage outside the timing,
		// so neither set-up time nor peak memory depends on when the
		// collector happens to run.
		runtime.GC()
	}
	if cfg.trace {
		return tracedSweep(cfg, specs, ref, pools, g)
	}

	ps, err := runPasses(specs, pools, g, cfg.seconds)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	ps.check(specs, ref, o)

	// Medians over passes keep one disturbed pass from moving a run's
	// figures: each surface's typical latency is its median over the
	// passes, and a pass's typical time is the sum of those. The
	// surfaces differ in cost by up to 8x, so a plain median over
	// requests would jump between surfaces; the typical request is
	// their mean.
	bySurface := make([][]float64, len(specs))
	for i, d := range ps.reqLat {
		bySurface[i%len(specs)] = append(bySurface[i%len(specs)], ms(d))
	}
	var passMS float64
	cells := 0
	for i, lat := range bySurface {
		passMS += median(lat)
		cells += g.cells(specs[i])
	}
	o.values["setup_s"] = median(setups)
	o.values["cells_per_s"] = float64(cells) / (passMS / 1000)
	o.values["requests_per_s"] = float64(len(specs)) / (passMS / 1000)
	o.values["p50_ms"] = passMS / float64(len(specs))
	o.values["paper_dev_pct"] = sweepPaperDev(specs, ps.surfaces[0])
	o.values["max_rss_mb"] = maxRSSMB()
	fmt.Fprintf(cfg.log, "%d passes in %.3fs, pass latencies %v\n", ps.n, ps.elapsed.Seconds(), ps.passLat)
	return o, nil
}

// sweepPaperDev is paper_dev_pct over the headline cells the pass
// simulated.
func sweepPaperDev(specs []surfaceSpec, row []*surface.Surface) float64 {
	var paper, got []float64
	for i, sp := range specs {
		s := row[i]
		for _, h := range headlines {
			if h.surf != sp.id {
				continue
			}
			wi, si := indexOf(s.WorkingSets, h.ws), indexOf(s.Strides, h.stride)
			if wi < 0 || si < 0 {
				continue
			}
			paper = append(paper, h.paperMBps)
			got = append(got, s.BW[wi][si].MBps())
		}
	}
	return paperDevPct(paper, got)
}

func indexOf[T comparable](xs []T, x T) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// cellResult is one cell measured cell by cell.
type cellResult struct {
	bw   units.BytesPerSec
	c    counters
	host time.Duration
}

// cellPasses is what a run of cell-by-cell passes measured.
type cellPasses struct {
	n        int
	wall     time.Duration
	byRegime map[string][]float64 // host ms per cell by kind and the model's regime: "load.L1", ...
	first    counters             // summed over the first pass
	loadHost time.Duration        // host time of load cells
	loads    int64                // loads issued by load cells
	cellHost time.Duration
	runWall  time.Duration // Σ sweep.Pool.Run wall time
	slowest  time.Duration
	points   int64
	cells    int64
}

// runCells requests passes cell by cell, through sweep.Pool.Run and
// bench's cell functions, reads the machine's counters after each cell
// and checks each cell, bandwidth and counters, against the reference.
// It runs n passes, or, with n == 0, whole passes until at least d has
// elapsed. With a tracer, a span wraps every pass, pool run and cell;
// with a nil one the path is the same without spans.
func runCells(specs []surfaceSpec, pools map[string]*sweep.Pool, g sweepGrid,
	ref reference, n int, d time.Duration, tr *tracer, o *outcome) (cellPasses, error) {
	models := make(map[string]*analytic.Model)
	for k, p := range pools {
		models[k] = analytic.New(p.Machine().Calibration())
	}
	cp := cellPasses{byRegime: make(map[string][]float64)}
	start := time.Now()
	done := func() bool {
		if n > 0 {
			return cp.n >= n
		}
		return cp.n > 0 && time.Since(start) >= d
	}
	for ; !done(); cp.n++ {
		req := int64(cp.n + 1)
		passID := tr.begin("pass", 0, req)
		for _, sp := range specs {
			kind := "transfer"
			if sp.load {
				kind = "load"
			}
			pool := pools[sp.machine]
			strides := g.strides(sp)
			before := pool.Points()
			cells := make([]cellResult, g.cells(sp))
			runID := tr.begin("sweep.run", passID, req)
			r0 := time.Now()
			err := pool.Run(len(cells), func(m machine.Machine, i int) error {
				ws, stride := g.wss[i/len(strides)], strides[i%len(strides)]
				id := tr.begin("bench."+kind+"_cell", runID, req)
				c0 := time.Now()
				bw, err := sp.cell(m, ws, stride)
				host := time.Since(c0)
				tr.end(id)
				cells[i] = cellResult{bw: bw, c: countersOf(m.Probe().Registry().Snapshot()), host: host}
				return err
			})
			cp.runWall += time.Since(r0)
			tr.end(runID)
			if err != nil {
				return cp, fmt.Errorf("%s: %w", sp.id, err)
			}
			cp.points += pool.Points() - before
			for i, c := range cells {
				ws, stride := g.wss[i/len(strides)], strides[i%len(strides)]
				ok := ref.checkCell(cellKey{sp.id, ws, stride}, c.bw, c.c)
				o.count(1, boolInt(!ok))
				regime := kind + "." + models[sp.machine].Regime(ws)
				cp.byRegime[regime] = append(cp.byRegime[regime], ms(c.host))
				if sp.load {
					cp.loadHost += c.host
					cp.loads += c.c.loads
				}
				cp.cellHost += c.host
				cp.slowest = max(cp.slowest, c.host)
				cp.cells++
				if cp.n == 0 {
					cp.first.add(c.c)
				}
			}
		}
		tr.end(passID)
	}
	cp.wall = time.Since(start)
	return cp, nil
}

// tracedSweep is the per-layer run of the sweep workload. It requests
// cell-by-cell passes untraced for half the measured time, then as
// many passes again with spans, so trace.overhead_frac compares one
// code path with and without its spans.
func tracedSweep(cfg config, specs []surfaceSpec, ref reference, pools map[string]*sweep.Pool, g sweepGrid) (*outcome, error) {
	o := newOutcome()
	plain, err := runCells(specs, pools, g, ref, 0, cfg.seconds/2, nil, o)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cp, err := runCells(specs, pools, g, ref, plain.n, 0, tr, o)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	for _, kind := range []string{"load", "transfer"} {
		for _, lvl := range []string{"L1", "L2", "L3", "DRAM"} {
			o.values["bench."+kind+"_cell_ms."+lvl] = mean(cp.byRegime[kind+"."+lvl])
		}
	}
	o.values["bench.load_ns_per_access"] = float64(cp.loadHost.Nanoseconds()) / float64(max(cp.loads, 1))
	o.values["bench.slowest_cell_ms"] = ms(cp.slowest)
	o.values["machine.loads"] = float64(cp.first.loads)
	o.values["machine.l1_misses"] = float64(cp.first.l1Misses)
	o.values["machine.dram_accesses"] = float64(cp.first.dramAccesses)
	o.values["machine.bus_transactions"] = float64(cp.first.busTransactions)
	o.values["machine.torus_bytes"] = float64(cp.first.torusBytes)
	o.values["sweep.points"] = float64(cp.points)
	o.values["sweep.busy_frac"] = float64(cp.cellHost) / (poolWidth * float64(cp.runWall))
	o.values["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(cp.cells)
	o.values["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	o.values["trace.overhead_frac"] = cp.wall.Seconds()/plain.wall.Seconds() - 1
	o.spans = tr.snapshot()
	fmt.Fprintf(cfg.log, "untraced: %d passes in %.3fs; traced: %d passes in %.3fs\n",
		plain.n, plain.wall.Seconds(), cp.n, cp.wall.Seconds())
	return o, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
