package surface

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/units"
)

func grid() *Surface {
	s := New("test", "load", []int{1, 4, 16}, []units.Bytes{units.KB, units.MB})
	// ws=1K row: 1000, 800, 600; ws=1M row: 100, 80, 60.
	vals := [][]float64{{1000, 800, 600}, {100, 80, 60}}
	for wi := range vals {
		for si := range vals[wi] {
			s.Set(wi, si, units.MBps(vals[wi][si]))
		}
	}
	return s
}

func TestAtExactPoints(t *testing.T) {
	s := grid()
	if got := s.At(units.KB, 4).MBps(); got != 800 {
		t.Errorf("At(1K,4) = %v, want 800", got)
	}
	if got := s.At(units.MB, 16).MBps(); got != 60 {
		t.Errorf("At(1M,16) = %v, want 60", got)
	}
}

func TestAtInterpolatesAndClamps(t *testing.T) {
	s := grid()
	mid := s.At(units.KB, 2).MBps() // between 1000 and 800 in log space
	if mid <= 800 || mid >= 1000 {
		t.Errorf("interpolated value %v outside (800,1000)", mid)
	}
	if got := s.At(units.KB/4, 1).MBps(); got != 1000 {
		t.Errorf("below-grid ws should clamp: %v", got)
	}
	if got := s.At(16*units.MB, 64).MBps(); got != 60 {
		t.Errorf("above-grid point should clamp: %v", got)
	}
}

func TestPlateau(t *testing.T) {
	s := grid()
	if got := s.Plateau(units.KB, units.KB, 1, 16).MBps(); got != 800 {
		t.Errorf("plateau = %v, want mean 800", got)
	}
	if got := s.Plateau(units.GB, units.GB, 1, 1); got != 0 {
		t.Errorf("empty plateau should be 0, got %v", got)
	}
}

func TestMax(t *testing.T) {
	if got := grid().Max().MBps(); got != 1000 {
		t.Errorf("Max = %v", got)
	}
}

func TestCSVAndASCII(t *testing.T) {
	s := grid()
	csv := s.CSV()
	if !strings.Contains(csv, "1000.0") || !strings.Contains(csv, "ws\\stride") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
	art := s.ASCII()
	if !strings.Contains(art, "peak 1000") {
		t.Errorf("ASCII missing peak:\n%s", art)
	}
}

// oneRow builds a fixed-working-set curve as a one-row surface.
func oneRow(strides []int, ws units.Bytes, bw ...units.BytesPerSec) *Surface {
	s := New("m", "t", strides, []units.Bytes{ws})
	copy(s.BW[0], bw)
	return s
}

func TestCurveAtAndTable(t *testing.T) {
	c := oneRow([]int{1, 8, 64}, 8*units.MB, units.MBps(100), units.MBps(50), units.MBps(20))
	if got := c.At(8*units.MB, 8).MBps(); got != 50 {
		t.Errorf("At(8) = %v", got)
	}
	between := c.At(8*units.MB, 3).MBps()
	if between <= 50 || between >= 100 {
		t.Errorf("interpolated curve value %v outside (50,100)", between)
	}
	if !strings.Contains(c.Table(), "stride") {
		t.Errorf("Table malformed")
	}
}

func TestWorkingSets(t *testing.T) {
	ws := WorkingSets(units.KB, 8*units.KB)
	if len(ws) != 4 || ws[0] != units.KB || ws[3] != 8*units.KB {
		t.Errorf("WorkingSets = %v", ws)
	}
}

func TestPaperAxes(t *testing.T) {
	if PaperStrides[0] != 1 || PaperStrides[len(PaperStrides)-1] != 192 {
		t.Errorf("paper stride axis wrong: %v", PaperStrides)
	}
	if CopyStrides[len(CopyStrides)-1] != 64 {
		t.Errorf("copy stride axis should end at 64 (Figures 9-14)")
	}
}

// curveAt is the stride interpolation of the former one-dimensional
// curve type, kept as the oracle one-row surfaces must reproduce.
func curveAt(strides []int, bw []units.BytesPerSec, stride int) units.BytesPerSec {
	axis := make([]float64, len(strides))
	for i, s := range strides {
		axis[i] = float64(s)
	}
	v := float64(stride)
	var i int
	var f float64
	switch last := len(axis) - 1; {
	case v <= axis[0]:
	case v >= axis[last]:
		i = last
	default:
		i = sort.SearchFloat64s(axis, v)
		if axis[i] != v {
			lo, hi := axis[i-1], axis[i]
			f = (math.Log2(v) - math.Log2(lo)) / (math.Log2(hi) - math.Log2(lo))
			i--
		}
	}
	b0 := float64(bw[i])
	b1 := float64(bw[min(i+1, len(bw)-1)])
	return units.BytesPerSec(b0*(1-f) + b1*f)
}

// TestOneRowAtMatchesCurveAt: a one-row surface read at any working
// set is bit-equal to the curve interpolation it replaced.
func TestOneRowAtMatchesCurveAt(t *testing.T) {
	bw := []units.BytesPerSec{480.25e6, 331.5e6, 190e6, 88.125e6, 61e6, 40.5e6, 21e6,
		19.75e6, 18e6, 17.5e6, 17e6, 16.25e6, 15e6, 14.5e6, 14e6, 13.75e6, 13e6}
	wss := []units.Bytes{units.KB / 2, 64 * units.KB, 8 * units.MB, 16 * units.MB, units.GB}
	for _, strides := range [][]int{CopyStrides, {1, 2, 4, 8, 16, 32, 64, 128}, {5}} {
		s := oneRow(strides, 16*units.MB, bw[:len(strides)]...)
		for _, ws := range wss {
			for stride := 0; stride <= 300; stride++ {
				want := curveAt(strides, bw[:len(strides)], stride)
				if got := s.At(ws, stride); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("strides %v: At(%v, %d) = %v, curve oracle %v", strides, ws, stride, got, want)
				}
			}
		}
	}
}

func TestAtDoesNotAllocate(t *testing.T) {
	s := oneRow(CopyStrides, 16*units.MB, make([]units.BytesPerSec, len(CopyStrides))...)
	if n := testing.AllocsPerRun(100, func() { s.At(8*units.MB, 20) }); n > 1 {
		t.Errorf("one-row At allocates %v times per call, want at most 1", n)
	}
	g := grid()
	if n := testing.AllocsPerRun(100, func() { g.At(3*units.KB, 2) }); n > 1 {
		t.Errorf("two-row At allocates %v times per call, want at most 1", n)
	}
}
