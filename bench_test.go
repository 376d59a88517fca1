// Package repro's root benchmarks regenerate every figure and table
// of the paper's evaluation as Go benchmarks: each BenchmarkFigNN
// runs the corresponding experiment on the simulated machines and
// reports the paper's metric (MByte/s or MFlop/s) via b.ReportMetric.
//
//	go test -bench=. -benchmem
//
// The absolute numbers are simulated bandwidths, to be compared with
// the paper's published plateaus (see EXPERIMENTS.md); ns/op measures
// only the host cost of running the simulation.
package repro_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// sweep axes kept small enough for a benchmark iteration while still
// covering every hierarchy level and the odd/even stride texture.
var (
	benchStrides = []int{1, 2, 4, 8, 16, 31, 32, 64}
	benchWS      = []units.Bytes{units.KB / 2, 8 * units.KB, 64 * units.KB, units.MB, 8 * units.MB}
)

func reportSurface(b *testing.B, s *surface.Surface) {
	b.Helper()
	b.ReportMetric(s.Max().MBps(), "peak-MB/s")
	b.ReportMetric(s.Plateau(8*units.MB, 8*units.MB, 1, 1).MBps(), "contig-MB/s")
	b.ReportMetric(s.Plateau(8*units.MB, 8*units.MB, 16, 64).MBps(), "strided-MB/s")
}

func benchLoadSurface(b *testing.B, mk func() machine.Machine) {
	for i := 0; i < b.N; i++ {
		p := sweep.NewPool(mk, runtime.GOMAXPROCS(0))
		s := bench.LoadSurface(p, 0, benchStrides, benchWS)
		if i == b.N-1 {
			reportSurface(b, s)
		}
	}
}

func benchTransferSurface(b *testing.B, mk func() machine.Machine, mode machine.Mode) {
	for i := 0; i < b.N; i++ {
		p := sweep.NewPool(mk, runtime.GOMAXPROCS(0))
		s, err := bench.TransferSurface(p, 0, machine.PreferredPartner(p.Machine()), mode, benchStrides, benchWS)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSurface(b, s)
		}
	}
}

// BenchmarkFig01DEC8400LocalLoads regenerates Figure 1.
func BenchmarkFig01DEC8400LocalLoads(b *testing.B) {
	benchLoadSurface(b, func() machine.Machine { return machine.NewDEC8400(4) })
}

// BenchmarkFig02DEC8400RemotePull regenerates Figure 2.
func BenchmarkFig02DEC8400RemotePull(b *testing.B) {
	benchTransferSurface(b, func() machine.Machine { return machine.NewDEC8400(4) }, machine.Fetch)
}

// BenchmarkFig03T3DLocalLoads regenerates Figure 3.
func BenchmarkFig03T3DLocalLoads(b *testing.B) {
	benchLoadSurface(b, func() machine.Machine { return machine.NewT3D(4) })
}

// BenchmarkFig04T3DFetch regenerates Figure 4.
func BenchmarkFig04T3DFetch(b *testing.B) {
	benchTransferSurface(b, func() machine.Machine { return machine.NewT3D(4) }, machine.Fetch)
}

// BenchmarkFig05T3DDeposit regenerates Figure 5.
func BenchmarkFig05T3DDeposit(b *testing.B) {
	benchTransferSurface(b, func() machine.Machine { return machine.NewT3D(4) }, machine.Deposit)
}

// BenchmarkFig06T3ELocalLoads regenerates Figure 6.
func BenchmarkFig06T3ELocalLoads(b *testing.B) {
	benchLoadSurface(b, func() machine.Machine { return machine.NewT3E(4) })
}

// BenchmarkFig07T3EFetch regenerates Figure 7.
func BenchmarkFig07T3EFetch(b *testing.B) {
	benchTransferSurface(b, func() machine.Machine { return machine.NewT3E(4) }, machine.Fetch)
}

// BenchmarkFig08T3EDeposit regenerates Figure 8.
func BenchmarkFig08T3EDeposit(b *testing.B) {
	benchTransferSurface(b, func() machine.Machine { return machine.NewT3E(4) }, machine.Deposit)
}

func benchCopyCurves(b *testing.B, mk func() machine.Machine) {
	for i := 0; i < b.N; i++ {
		p := sweep.NewPool(mk, runtime.GOMAXPROCS(0))
		sl := bench.CopyCurve(p, 0, 8*units.MB, benchStrides, true)
		ss := bench.CopyCurve(p, 0, 8*units.MB, benchStrides, false)
		if i == b.N-1 {
			b.ReportMetric(sl.At(8*units.MB, 1).MBps(), "contig-MB/s")
			b.ReportMetric(sl.At(8*units.MB, 16).MBps(), "strided-loads-MB/s")
			b.ReportMetric(ss.At(8*units.MB, 16).MBps(), "strided-stores-MB/s")
		}
	}
}

// BenchmarkFig09DEC8400LocalCopy regenerates Figure 9.
func BenchmarkFig09DEC8400LocalCopy(b *testing.B) {
	benchCopyCurves(b, func() machine.Machine { return machine.NewDEC8400(4) })
}

// BenchmarkFig10T3DLocalCopy regenerates Figure 10.
func BenchmarkFig10T3DLocalCopy(b *testing.B) {
	benchCopyCurves(b, func() machine.Machine { return machine.NewT3D(4) })
}

// BenchmarkFig11T3ELocalCopy regenerates Figure 11.
func BenchmarkFig11T3ELocalCopy(b *testing.B) {
	benchCopyCurves(b, func() machine.Machine { return machine.NewT3E(4) })
}

func benchRemoteCopy(b *testing.B, mk func() machine.Machine, mode machine.Mode) {
	for i := 0; i < b.N; i++ {
		p := sweep.NewPool(mk, runtime.GOMAXPROCS(0))
		stridedLoads := mode == machine.Fetch
		c, err := bench.TransferCurve(p, 0, machine.PreferredPartner(p.Machine()), 8*units.MB,
			benchStrides, mode, stridedLoads, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(c.At(8*units.MB, 1).MBps(), "contig-MB/s")
			b.ReportMetric(c.At(8*units.MB, 16).MBps(), "strided-MB/s")
		}
	}
}

// BenchmarkFig12DEC8400RemoteCopy regenerates Figure 12.
func BenchmarkFig12DEC8400RemoteCopy(b *testing.B) {
	benchRemoteCopy(b, func() machine.Machine { return machine.NewDEC8400(4) }, machine.Fetch)
}

// BenchmarkFig13T3DRemoteCopy regenerates Figure 13.
func BenchmarkFig13T3DRemoteCopy(b *testing.B) {
	benchRemoteCopy(b, func() machine.Machine { return machine.NewT3D(4) }, machine.Deposit)
}

// BenchmarkFig14T3ERemoteCopy regenerates Figure 14.
func BenchmarkFig14T3ERemoteCopy(b *testing.B) {
	benchRemoteCopy(b, func() machine.Machine { return machine.NewT3E(4) }, machine.Deposit)
}

// Characterizations for the FFT benchmarks are expensive; build once.
var (
	fftOnce  sync.Once
	fftMachs map[string]machine.Machine
	fftChars map[string]*core.Characterization
)

func fftSetup(b *testing.B) {
	b.Helper()
	fftOnce.Do(func() {
		factories := map[string]func() machine.Machine{
			"t3d":  func() machine.Machine { return machine.NewT3D(4) },
			"8400": func() machine.Machine { return machine.NewDEC8400(4) },
			"t3e":  func() machine.Machine { return machine.NewT3E(4) },
		}
		fftMachs = map[string]machine.Machine{}
		fftChars = map[string]*core.Characterization{}
		for k, mk := range factories {
			p := sweep.NewPool(mk, runtime.GOMAXPROCS(0))
			fftChars[k] = core.Measure(p, core.DefaultMeasure())
			fftMachs[k] = p.Machine()
		}
	})
}

func benchFFT(b *testing.B, metric func(fft.Result) float64, unit string) {
	fftSetup(b)
	for i := 0; i < b.N; i++ {
		for _, k := range []string{"t3d", "8400", "t3e"} {
			r, err := fft.Run2D(fftMachs[k], 256, fft.Options{Char: fftChars[k]})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(metric(r), k+"-"+unit)
			}
		}
	}
}

// BenchmarkFig15FFTOverall regenerates Figure 15 at 256^2.
func BenchmarkFig15FFTOverall(b *testing.B) {
	benchFFT(b, func(r fft.Result) float64 { return r.MFlops }, "MFlop/s")
}

// BenchmarkFig16FFTComputation regenerates Figure 16 at 256^2.
func BenchmarkFig16FFTComputation(b *testing.B) {
	benchFFT(b, func(r fft.Result) float64 { return r.ComputeMFlops }, "MFlop/s")
}

// BenchmarkFig17FFTCommunication regenerates Figure 17 at 256^2.
func BenchmarkFig17FFTCommunication(b *testing.B) {
	benchFFT(b, func(r fft.Result) float64 { return r.CommMBps }, "MB/s")
}

// BenchmarkTableAHeadlinePlateaus regenerates the §5 headline load
// plateaus (Table A of EXPERIMENTS.md).
func BenchmarkTableAHeadlinePlateaus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.NewT3E(4)
		m.ColdReset()
		bw := bench.LoadSum(m, 0, access.Pattern{
			Base: machine.LocalBase(0), WorkingSet: 8 * units.MB, Stride: 1})
		if i == b.N-1 {
			b.ReportMetric(bw.MBps(), "t3e-dram-MB/s")
		}
	}
}

// BenchmarkTableBStridedRemote regenerates the §9 strided remote
// headline (22 / 55 / 140 MB/s).
func BenchmarkTableBStridedRemote(b *testing.B) {
	machines := []struct {
		mk   func() machine.Machine
		mode machine.Mode
		name string
	}{
		{func() machine.Machine { return machine.NewDEC8400(4) }, machine.Fetch, "8400"},
		{func() machine.Machine { return machine.NewT3D(4) }, machine.Deposit, "t3d"},
		{func() machine.Machine { return machine.NewT3E(4) }, machine.Fetch, "t3e"},
	}
	for i := 0; i < b.N; i++ {
		for _, mm := range machines {
			m := mm.mk()
			cp := access.CopyPattern{
				SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(machine.PreferredPartner(m)),
				WorkingSet: 8 * units.MB, LoadStride: 1, StoreStride: 1,
			}
			if mm.mode == machine.Deposit {
				cp.StoreStride = 16
			} else {
				cp.LoadStride = 16
			}
			bw, err := bench.Transfer(m, 0, machine.PreferredPartner(m), cp, machine.Options{Mode: mm.mode})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(bw.MBps(), mm.name+"-MB/s")
			}
		}
	}
}

// BenchmarkAblationT3EStreams measures the §5.5 stream-unit ablation
// (430 vs 120 MB/s contiguous).
func BenchmarkAblationT3EStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := machine.NewT3E(1)
		off := machine.NewT3ENoStreams(1)
		p := access.Pattern{Base: machine.LocalBase(0), WorkingSet: 8 * units.MB, Stride: 1}
		bwOn := bench.LoadSum(on, 0, p)
		bwOff := bench.LoadSum(off, 0, p)
		if i == b.N-1 {
			b.ReportMetric(bwOn.MBps(), "streams-on-MB/s")
			b.ReportMetric(bwOff.MBps(), "streams-off-MB/s")
		}
	}
}

// BenchmarkAblationT3DNaiveRemoteLoads measures §5.4's naive remote
// loads against the deposit path.
func BenchmarkAblationT3DNaiveRemoteLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.NewT3D(4)
		cp := access.CopyPattern{
			SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(2),
			WorkingSet: units.MB, LoadStride: 1, StoreStride: 1,
		}
		naive, err := bench.Transfer(m, 0, 2, cp, machine.Options{Mode: machine.NaiveFetch})
		if err != nil {
			b.Fatal(err)
		}
		dep, err := bench.Transfer(m, 0, 2, cp, machine.Options{Mode: machine.Deposit})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(naive.MBps(), "naive-MB/s")
			b.ReportMetric(dep.MBps(), "deposit-MB/s")
		}
	}
}

// BenchmarkFFTNumeric measures the host cost of the real FFT kernel
// (correctness substrate, not a paper figure).
func BenchmarkFFTNumeric(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), float64(i%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.FFT1D(x, false)
		fft.FFT1D(x, true)
	}
}
