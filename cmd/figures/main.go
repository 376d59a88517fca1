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
	"slices"
	"strings"

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

	txt, err := report.Figures15to17(ms, cs, fftSizes)
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

// producer sweeps the surfaces of one figure on its machine's pool,
// honouring -maxws and -fast where the figure has them.
type producer func(p *sweep.Pool, maxWS units.Bytes, fast bool, st *pruneStats) ([]*surface.Surface, error)

// artifact is one file a figure writes under -all: the extension
// after the figure's stem, and the content.
type artifact struct{ ext, content string }

// renderer turns a figure's surfaces into its -fig stdout and its
// -all files.
type renderer func(ss []*surface.Surface) (stdout string, files []artifact)

// figure is one numbered sweep figure.
type figure struct {
	num     int
	pool    string // machine key of the pool it sweeps
	stem    string // file name under -all, without extension
	produce producer
	render  renderer
}

// figures lists Figures 1-14 in the order -all writes them. Figures
// 15-17 are the FFT study, which needs the
// characterizations rather than one sweep.
var figures = []figure{
	{1, "8400", "fig01_8400_local_load", loadFig, grid},
	{2, "8400", "fig02_8400_remote_pull", transferFig(machine.Fetch), grid},
	{3, "t3d", "fig03_t3d_local_load", loadFig, grid},
	{4, "t3d", "fig04_t3d_fetch", transferFig(machine.Fetch), grid},
	{5, "t3d", "fig05_t3d_deposit", transferFig(machine.Deposit), grid},
	{6, "t3e", "fig06_t3e_local_load", loadFig, grid},
	{7, "t3e", "fig07_t3e_fetch", transferFig(machine.Fetch), grid},
	{8, "t3e", "fig08_t3e_deposit", transferFig(machine.Deposit), grid},
	{9, "8400", "fig09_8400_local_copy", copyFig, copyCurves},
	{10, "t3d", "fig10_t3d_local_copy", copyFig, copyCurves},
	{11, "t3e", "fig11_t3e_local_copy", copyFig, copyCurves},
	{12, "8400", "fig12_8400_remote_copy", remoteCopyFig, curves},
	{13, "t3d", "fig13_t3d_remote_copy", remoteCopyFig, curves},
	{14, "t3e", "fig14_t3e_remote_copy", remoteCopyFig, curves},
}

// fftSizes are the problem sizes of Figures 15-17 and Table C's
// companion table.
var fftSizes = []int{32, 64, 128, 256, 512, 1024}

func loadFig(p *sweep.Pool, maxWS units.Bytes, fast bool, st *pruneStats) ([]*surface.Surface, error) {
	s, sim, total := report.LoadFigure(p, maxWS, fast)
	st.note(sim, total)
	return []*surface.Surface{s}, nil
}

func transferFig(mode machine.Mode) producer {
	return func(p *sweep.Pool, maxWS units.Bytes, fast bool, st *pruneStats) ([]*surface.Surface, error) {
		s, sim, total, err := report.TransferFigure(p, mode, maxWS, fast)
		st.note(sim, total)
		return []*surface.Surface{s}, err
	}
}

func copyFig(p *sweep.Pool, _ units.Bytes, _ bool, _ *pruneStats) ([]*surface.Surface, error) {
	a, b := report.CopyFigure(p)
	return []*surface.Surface{a, b}, nil
}

func remoteCopyFig(p *sweep.Pool, _ units.Bytes, _ bool, _ *pruneStats) ([]*surface.Surface, error) {
	return report.RemoteCopyFigure(p)
}

// grid renders a full surface: the ASCII plot on stdout, CSV and
// ASCII files.
func grid(ss []*surface.Surface) (string, []artifact) {
	art := ss[0].ASCII()
	return art, []artifact{{".csv", ss[0].CSV()}, {".txt", art}}
}

// curves renders one-row surfaces as stride tables, each followed by
// a blank line, on stdout and in one text file.
func curves(ss []*surface.Surface) (string, []artifact) {
	var b strings.Builder
	for _, s := range ss {
		b.WriteString(s.Table())
		b.WriteByte('\n')
	}
	return b.String(), []artifact{{".txt", b.String()}}
}

// copyCurves is curves with no blank line after the last table in
// the file.
func copyCurves(ss []*surface.Surface) (string, []artifact) {
	out, _ := curves(ss)
	return out, []artifact{{".txt", strings.TrimSuffix(out, "\n")}}
}

// printFigure prints one figure to stdout.
func printFigure(ms map[string]machine.Machine, ps map[string]*sweep.Pool, fig int, maxWS units.Bytes, fast bool) error {
	if fig >= 15 && fig <= 17 {
		txt, err := report.Figures15to17(ms, characterize(ps), fftSizes)
		if err != nil {
			return err
		}
		fmt.Println(txt)
		return nil
	}
	i := slices.IndexFunc(figures, func(f figure) bool { return f.num == fig })
	if i < 0 {
		return fmt.Errorf("no figure %d (paper has 1-17)", fig)
	}
	var st pruneStats
	defer st.report()
	f := figures[i]
	ss, err := f.produce(ps[f.pool], maxWS, fast, &st)
	if err != nil {
		return err
	}
	out, _ := f.render(ss)
	fmt.Print(out)
	return nil
}

func writeAll(ms map[string]machine.Machine, ps map[string]*sweep.Pool, dir string, maxWS units.Bytes, fast bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var st pruneStats
	defer st.report()
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}
	for _, f := range figures {
		fmt.Fprintf(os.Stderr, "sweeping %s...\n", f.stem)
		ss, err := f.produce(ps[f.pool], maxWS, fast, &st)
		if err != nil {
			return err
		}
		_, files := f.render(ss)
		for _, a := range files {
			if err := write(f.stem+a.ext, a.content); err != nil {
				return err
			}
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
	txt, err := report.Figures15to17(ms, cs, fftSizes)
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
