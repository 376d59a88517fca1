// Command figures regenerates every figure and table of the paper's
// evaluation from the simulated machines, writing CSV/ASCII artifacts
// to an output directory and printing the paper-vs-measured
// comparison tables.
//
//	figures                 # headline tables A-C on stdout
//	figures -all -out out   # figures 1-17 into out/ plus tables
//	figures -fig 6          # one load surface (ASCII) on stdout
//	figures -all -j 8       # fan sweep grid points over 8 workers
//
// Sweep artifacts are byte-identical for every -j value: grid points
// are independent simulations and results land by point index.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

func main() {
	all := flag.Bool("all", false, "regenerate every figure into -out")
	fig := flag.Int("fig", 0, "print one figure (1-17) to stdout")
	out := flag.String("out", "out", "output directory for -all")
	maxWS := flag.String("maxws", "8M", "largest working set for surfaces (bytes, or sizes like 512K, 8M)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "sweep workers (1 = sequential)")
	fast := flag.Bool("fast", false, "model-guided adaptive sweeps: fill analytically confident cells, simulate the rest")
	storeDir := flag.String("store", ".sweepstore", "persistent surface store directory (\"\" disables caching)")
	trace := flag.Bool("trace", false, "enable probe event tracing on every simulated machine")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	ws, err := units.ParseBytes(*maxWS)
	if err != nil {
		fatal(err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	ms := report.Machines()
	ps := report.Pools(*jobs)
	if *trace {
		ps = report.TracedPools(*jobs)
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.Options{
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		for _, k := range report.PoolNames(ps) {
			ps[k].SetStore(st)
		}
	}

	switch {
	case *fig != 0:
		err = printFigure(ms, ps, *fig, ws, *fast)
	case *all:
		err = writeAll(ms, ps, *out, ws, *fast)
	default:
		err = tables(ms, ps, characterize(ps))
	}
	if err != nil {
		fatal(err)
	}
	if st != nil {
		fmt.Fprintf(os.Stderr, "store: %s\n", st.Stats())
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

// sweptPoints sums the grid points the pools have scheduled so far
// (the unit of the points/sec figure scripts/bench.sh records).
func sweptPoints(ps map[string]*sweep.Pool) int64 {
	var total int64
	//simlint:ignore determinism summation is order-independent
	for _, p := range ps {
		total += p.Points()
	}
	return total
}

func tables(ms map[string]machine.Machine, ps map[string]*sweep.Pool, cs map[string]*core.Characterization) error {
	fmt.Println("Table A — local load plateaus (paper §5 vs simulation)")
	fmt.Println(report.Table(report.HeadlineLocal(ps)))
	fmt.Println("Table B — copy and remote transfer plateaus (paper §6/§9 vs simulation)")
	fmt.Println(report.Table(report.HeadlineCopy(ps)))

	rows, err := report.HeadlineFFT(ms, cs)
	if err != nil {
		return err
	}
	fmt.Println("Table C — 2D-FFT application kernel (paper §7 vs simulation)")
	fmt.Println(report.Table(rows))

	txt, err := report.Figures15to17(ms, cs, []int{32, 64, 128, 256, 512, 1024})
	if err != nil {
		return err
	}
	fmt.Println(txt)
	return nil
}

func characterize(ps map[string]*sweep.Pool) map[string]*core.Characterization {
	cs := make(map[string]*core.Characterization)
	for _, k := range report.PoolNames(ps) {
		fmt.Fprintf(os.Stderr, "characterizing %s...\n", ps[k].Machine().Name())
		cs[k] = core.Measure(ps[k], core.DefaultMeasure())
	}
	return cs
}

// pruneStats accumulates the simulated-cell fraction of a -fast run.
type pruneStats struct {
	simulated, total int
}

func (st *pruneStats) note(sim, total int) {
	st.simulated += sim
	st.total += total
}

func (st *pruneStats) report() {
	if st.total == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "fast sweep: simulated %d of %d cells (%.0f%%), filled the rest analytically\n",
		st.simulated, st.total, 100*float64(st.simulated)/float64(st.total))
}

// loadSurf and transferSurf produce one surface, honouring -fast.
func loadSurf(p *sweep.Pool, maxWS units.Bytes, fast bool, st *pruneStats) *surface.Surface {
	s, sim, total := report.LoadFigure(p, maxWS, fast)
	st.note(sim, total)
	return s
}

func transferSurf(p *sweep.Pool, mode machine.Mode, maxWS units.Bytes, fast bool, st *pruneStats) (*surface.Surface, error) {
	s, sim, total, err := report.TransferFigure(p, mode, maxWS, fast)
	st.note(sim, total)
	return s, err
}

// figureSpec describes how to produce each numbered figure.
func printFigure(ms map[string]machine.Machine, ps map[string]*sweep.Pool, fig int, maxWS units.Bytes, fast bool) error {
	var st pruneStats
	defer st.report()
	emitSurface := func(s *surface.Surface) {
		fmt.Print(s.ASCII())
	}
	emitCurves := func(cs ...*surface.Curve) {
		for _, c := range cs {
			fmt.Println(c.Table())
		}
	}
	switch fig {
	case 1:
		emitSurface(loadSurf(ps["8400"], maxWS, fast, &st))
	case 2:
		s, err := transferSurf(ps["8400"], machine.Fetch, maxWS, fast, &st)
		if err != nil {
			return err
		}
		emitSurface(s)
	case 3:
		emitSurface(loadSurf(ps["t3d"], maxWS, fast, &st))
	case 4:
		s, err := transferSurf(ps["t3d"], machine.Fetch, maxWS, fast, &st)
		if err != nil {
			return err
		}
		emitSurface(s)
	case 5:
		s, err := transferSurf(ps["t3d"], machine.Deposit, maxWS, fast, &st)
		if err != nil {
			return err
		}
		emitSurface(s)
	case 6:
		emitSurface(loadSurf(ps["t3e"], maxWS, fast, &st))
	case 7:
		s, err := transferSurf(ps["t3e"], machine.Fetch, maxWS, fast, &st)
		if err != nil {
			return err
		}
		emitSurface(s)
	case 8:
		s, err := transferSurf(ps["t3e"], machine.Deposit, maxWS, fast, &st)
		if err != nil {
			return err
		}
		emitSurface(s)
	case 9:
		emitCurves(first2(report.CopyFigure(ps["8400"])))
	case 10:
		emitCurves(first2(report.CopyFigure(ps["t3d"])))
	case 11:
		emitCurves(first2(report.CopyFigure(ps["t3e"])))
	case 12:
		cs, err := report.RemoteCopyFigure(ps["8400"])
		if err != nil {
			return err
		}
		emitCurves(cs...)
	case 13:
		cs, err := report.RemoteCopyFigure(ps["t3d"])
		if err != nil {
			return err
		}
		emitCurves(cs...)
	case 14:
		cs, err := report.RemoteCopyFigure(ps["t3e"])
		if err != nil {
			return err
		}
		emitCurves(cs...)
	case 15, 16, 17:
		cs := characterize(ps)
		txt, err := report.Figures15to17(ms, cs, []int{32, 64, 128, 256, 512, 1024})
		if err != nil {
			return err
		}
		fmt.Println(txt)
	default:
		return fmt.Errorf("no figure %d (paper has 1-17)", fig)
	}
	return nil
}

func first2(a, b *surface.Curve) (x, y *surface.Curve) { return a, b }

func writeAll(ms map[string]machine.Machine, ps map[string]*sweep.Pool, dir string, maxWS units.Bytes, fast bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var st pruneStats
	defer st.report()
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}
	type surfJob struct {
		name string
		pool *sweep.Pool
		mode machine.Mode
		load bool
	}
	jobs := []surfJob{
		{"fig01_8400_local_load", ps["8400"], 0, true},
		{"fig02_8400_remote_pull", ps["8400"], machine.Fetch, false},
		{"fig03_t3d_local_load", ps["t3d"], 0, true},
		{"fig04_t3d_fetch", ps["t3d"], machine.Fetch, false},
		{"fig05_t3d_deposit", ps["t3d"], machine.Deposit, false},
		{"fig06_t3e_local_load", ps["t3e"], 0, true},
		{"fig07_t3e_fetch", ps["t3e"], machine.Fetch, false},
		{"fig08_t3e_deposit", ps["t3e"], machine.Deposit, false},
	}
	for _, j := range jobs {
		fmt.Fprintf(os.Stderr, "sweeping %s...\n", j.name)
		var s *surface.Surface
		var err error
		if j.load {
			s = loadSurf(j.pool, maxWS, fast, &st)
		} else {
			s, err = transferSurf(j.pool, j.mode, maxWS, fast, &st)
			if err != nil {
				return err
			}
		}
		if err := write(j.name+".csv", s.CSV()); err != nil {
			return err
		}
		if err := write(j.name+".txt", s.ASCII()); err != nil {
			return err
		}
	}
	copyJobs := []struct{ key, name string }{
		{"8400", "fig09"}, {"t3d", "fig10"}, {"t3e", "fig11"},
	}
	for _, j := range copyJobs {
		fmt.Fprintf(os.Stderr, "sweeping %s local copies...\n", j.key)
		a, b := report.CopyFigure(ps[j.key])
		if err := write(fmt.Sprintf("%s_%s_local_copy.txt", j.name, j.key), a.Table()+"\n"+b.Table()); err != nil {
			return err
		}
	}
	remoteJobs := []struct{ key, name string }{
		{"8400", "fig12"}, {"t3d", "fig13"}, {"t3e", "fig14"},
	}
	for _, j := range remoteJobs {
		fmt.Fprintf(os.Stderr, "sweeping %s remote copies...\n", j.key)
		cs, err := report.RemoteCopyFigure(ps[j.key])
		if err != nil {
			return err
		}
		var txt string
		for _, c := range cs {
			txt += c.Table() + "\n"
		}
		if err := write(fmt.Sprintf("%s_%s_remote_copy.txt", j.name, j.key), txt); err != nil {
			return err
		}
	}
	attrJobs := []string{"8400", "t3d", "t3e"}
	for _, key := range attrJobs {
		fmt.Fprintf(os.Stderr, "sweeping %s attribution...\n", key)
		txt, err := report.AttributionFigure(ps[key], maxWS)
		if err != nil {
			return err
		}
		if err := write(fmt.Sprintf("attr_%s_load.txt", key), txt); err != nil {
			return err
		}
	}
	cs := characterize(ps)
	txt, err := report.Figures15to17(ms, cs, []int{32, 64, 128, 256, 512, 1024})
	if err != nil {
		return err
	}
	if err := write("fig15-17_fft.txt", txt); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote figures to", dir)
	if err := tables(ms, ps, cs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "swept %d grid points\n", sweptPoints(ps))
	return nil
}
