package bench

import (
	"testing"

	"repro/internal/access"
	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

func TestLoadSumPlateaus(t *testing.T) {
	m := machine.NewT3D(1)
	inCache := LoadSum(m, 0, access.Pattern{Base: machine.LocalBase(0),
		WorkingSet: 4 * units.KB, Stride: 1})
	m.ColdReset()
	dram := LoadSum(m, 0, access.Pattern{Base: machine.LocalBase(0),
		WorkingSet: 4 * units.MB, Stride: 1})
	if inCache <= dram {
		t.Errorf("in-cache (%v) should beat DRAM (%v)", inCache, dram)
	}
}

func TestStoreConst(t *testing.T) {
	m := machine.NewT3D(1)
	bw := StoreConst(m, 0, access.Pattern{Base: machine.LocalBase(0),
		WorkingSet: units.MB, Stride: 1})
	if bw.MBps() < 50 {
		t.Errorf("contiguous store bandwidth = %v, implausibly low", bw)
	}
	m.ColdReset()
	strided := StoreConst(m, 0, access.Pattern{Base: machine.LocalBase(0),
		WorkingSet: units.MB, Stride: 16})
	if strided >= bw {
		t.Errorf("strided stores (%v) should be slower than contiguous (%v)", strided, bw)
	}
}

func TestLocalCopySlowerThanLoads(t *testing.T) {
	m := machine.NewT3E(1)
	base := machine.LocalBase(0)
	cp := access.CopyPattern{SrcBase: base,
		DstBase:    base + access.Addr(1<<30) + access.Addr(2*units.MB) + 128,
		WorkingSet: 2 * units.MB, LoadStride: 1, StoreStride: 1}
	copyBW := LocalCopy(m, 0, cp)
	m.ColdReset()
	loadBW := LoadSum(m, 0, access.Pattern{Base: base, WorkingSet: 2 * units.MB, Stride: 1})
	if copyBW >= loadBW {
		t.Errorf("copy (%v) cannot beat pure loads (%v)", copyBW, loadBW)
	}
}

func TestTransferCapsHugeWorkingSets(t *testing.T) {
	m := machine.NewT3E(2)
	cp := access.CopyPattern{SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(1),
		WorkingSet: 64 * units.MB, LoadStride: 1, StoreStride: 1}
	bw, err := Transfer(m, 0, 1, cp, machine.Options{Mode: machine.Fetch})
	if err != nil {
		t.Fatal(err)
	}
	// 64 MB is sampled down to the 16 MB cap; the steady-state rate
	// must still be the contiguous plateau.
	if bw.MBps() < 250 || bw.MBps() > 450 {
		t.Errorf("capped transfer = %v, want ~350 MB/s", bw)
	}
}

func TestLoadSurfaceShape(t *testing.T) {
	m := machine.NewT3D(1)
	s := LoadSurface(sweep.Seq(m), 0, []int{1, 16}, []units.Bytes{4 * units.KB, 2 * units.MB})
	if s.BW[0][0] <= s.BW[1][0] {
		t.Errorf("small WS (%v) should beat large WS (%v)", s.BW[0][0], s.BW[1][0])
	}
	if s.BW[1][0] <= s.BW[1][1] {
		t.Errorf("contiguous (%v) should beat strided (%v) out of DRAM", s.BW[1][0], s.BW[1][1])
	}
}

func TestTransferSurfaceDepositUnsupportedOn8400(t *testing.T) {
	m := machine.NewDEC8400(2)
	_, err := TransferSurface(sweep.Seq(m), 0, 1, machine.Deposit, []int{1}, []units.Bytes{units.KB})
	if err == nil {
		t.Fatalf("deposit surface on the 8400 should fail")
	}
}

func TestCopyCurveMonotoneEnough(t *testing.T) {
	m := machine.NewT3D(1)
	c := CopyCurve(sweep.Seq(m), 0, 4*units.MB, surface.CopyStrides, false)
	row := c.BW[0]
	if row[0] <= row[len(row)-1] {
		t.Errorf("contiguous copy (%v) should beat stride-64 copy (%v)",
			row[0], row[len(row)-1])
	}
}
