// Package surface holds the stride x working-set bandwidth grids that
// are the paper's central data structure, with the plateau
// extraction, interpolation, and rendering used by the
// characterization, the planner, and the figure regeneration tools.
// Figures 1-8 are full grids; Figures 9-14 read the same function at
// one fixed working set and are stored as one-row grids.
package surface

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/units"
)

// PaperStrides is the stride axis of the paper's figures ("a
// selection of even, odd, and prime strides permits to detect
// performance gains and losses due to a banked memory system", §5.1).
var PaperStrides = []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 24, 31, 32, 48, 63, 64, 96, 127, 128, 192}

// CopyStrides is the stride axis of the copy figures (Figures 9-14).
var CopyStrides = []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 24, 31, 32, 48, 63, 64}

// WorkingSets returns the power-of-two working-set axis from lo to hi
// inclusive (the paper sweeps 0.5k ... 128M).
func WorkingSets(lo, hi units.Bytes) []units.Bytes {
	var out []units.Bytes
	for ws := lo; ws <= hi; ws *= 2 {
		out = append(out, ws)
	}
	return out
}

// Surface is a bandwidth grid over (working set, stride). It is the
// simulator's one persistent artifact: snapshot.go gives it a
// versioned binary codec (the memserve surface store's wire format),
// and the snapshotsafe analyzer holds the codec to the struct.
//
//simlint:snapshot
type Surface struct {
	Machine string
	Title   string
	// CalHash identifies the machine calibration the grid was
	// computed from (machine Calibration().Hash()); zero when
	// unknown (pre-v2 snapshots, hand-assembled grids).
	CalHash     uint64
	Strides     []int
	WorkingSets []units.Bytes
	// BW[w][s] is the bandwidth at WorkingSets[w], Strides[s].
	BW [][]units.BytesPerSec
	// Source[w][s] tags each cell's provenance: Simulated (the
	// mechanistic truth) or Analytic (the closed-form fast path).
	Source [][]Source
}

// Source tags where a cell's bandwidth came from.
type Source uint8

const (
	// Simulated cells ran the full mechanistic simulation; they are
	// the default and the ground truth.
	Simulated Source = iota
	// Analytic cells were filled by the closed-form model of
	// internal/analytic (the pruned sweep's fast path).
	Analytic
)

func (s Source) String() string {
	switch s {
	case Simulated:
		return "simulated"
	case Analytic:
		return "analytic"
	}
	return fmt.Sprintf("Source(%d)", uint8(s))
}

// New allocates a surface with the given axes; every cell starts
// tagged Simulated.
func New(machine, title string, strides []int, wss []units.Bytes) *Surface {
	s := &Surface{Machine: machine, Title: title,
		Strides:     append([]int(nil), strides...),
		WorkingSets: append([]units.Bytes(nil), wss...)}
	s.BW = make([][]units.BytesPerSec, len(wss))
	s.Source = make([][]Source, len(wss))
	for i := range s.BW {
		s.BW[i] = make([]units.BytesPerSec, len(strides))
		s.Source[i] = make([]Source, len(strides))
	}
	return s
}

// Set stores a measurement.
func (s *Surface) Set(wsIdx, strideIdx int, bw units.BytesPerSec) {
	s.BW[wsIdx][strideIdx] = bw
}

// SetSource tags a cell's provenance.
func (s *Surface) SetSource(wsIdx, strideIdx int, src Source) {
	s.Source[wsIdx][strideIdx] = src
}

// SourceAt returns a cell's provenance; surfaces without tags (pre-v2
// snapshots) are entirely simulated.
func (s *Surface) SourceAt(wsIdx, strideIdx int) Source {
	if len(s.Source) == 0 {
		return Simulated
	}
	return s.Source[wsIdx][strideIdx]
}

// CountSource returns how many cells are tagged src.
func (s *Surface) CountSource(src Source) int {
	n := 0
	for wi := range s.BW {
		for si := range s.BW[wi] {
			if s.SourceAt(wi, si) == src {
				n++
			}
		}
	}
	return n
}

// At interpolates the bandwidth at an arbitrary (ws, stride) point,
// bilinear in log2(ws) x log2(stride), clamping outside the grid. On
// a one-row surface (a fixed-working-set sweep) every ws reads that
// row, so At is the stride interpolation alone.
func (s *Surface) At(ws units.Bytes, stride int) units.BytesPerSec {
	if len(s.WorkingSets) == 0 || len(s.Strides) == 0 {
		return 0
	}
	wi, wf := locate(ws, s.WorkingSets)
	si, sf := locate(stride, s.Strides)
	b00 := float64(s.BW[wi][si])
	b01 := float64(s.BW[wi][min(si+1, len(s.Strides)-1)])
	b10 := float64(s.BW[min(wi+1, len(s.WorkingSets)-1)][si])
	b11 := float64(s.BW[min(wi+1, len(s.WorkingSets)-1)][min(si+1, len(s.Strides)-1)])
	return units.BytesPerSec((b00*(1-sf)+b01*sf)*(1-wf) + (b10*(1-sf)+b11*sf)*wf)
}

// locate finds the interval index and log-space fraction of v within
// ascending axis values.
func locate[T ~int | ~int64](v T, axis []T) (int, float64) {
	if v <= axis[0] {
		return 0, 0
	}
	last := len(axis) - 1
	if v >= axis[last] {
		return last, 0
	}
	i := sort.Search(len(axis), func(i int) bool { return axis[i] >= v })
	if axis[i] == v {
		return i, 0
	}
	lo, hi := float64(axis[i-1]), float64(axis[i])
	f := (math.Log2(float64(v)) - math.Log2(lo)) / (math.Log2(hi) - math.Log2(lo))
	return i - 1, f
}

// Plateau averages the bandwidth over the cells whose working set
// lies in [wsLo, wsHi] and stride in [strideLo, strideHi] — the
// paper's "horizontal plateaus" per hierarchy level (§5.1).
func (s *Surface) Plateau(wsLo, wsHi units.Bytes, strideLo, strideHi int) units.BytesPerSec {
	var sum float64
	var n int
	for wi, ws := range s.WorkingSets {
		if ws < wsLo || ws > wsHi {
			continue
		}
		for si, st := range s.Strides {
			if st < strideLo || st > strideHi {
				continue
			}
			sum += float64(s.BW[wi][si])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return units.BytesPerSec(sum / float64(n))
}

// Max returns the maximum bandwidth on the grid.
func (s *Surface) Max() units.BytesPerSec {
	var m units.BytesPerSec
	for _, row := range s.BW {
		for _, b := range row {
			if b > m {
				m = b
			}
		}
	}
	return m
}

// CSV renders the surface as a comma-separated grid (working sets as
// rows, strides as columns), ready for external plotting.
func (s *Surface) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s (MByte/s)\n", s.Machine, s.Title)
	b.WriteString("ws\\stride")
	for _, st := range s.Strides {
		fmt.Fprintf(&b, ",%d", st)
	}
	b.WriteByte('\n')
	for wi, ws := range s.WorkingSets {
		b.WriteString(ws.String())
		for si := range s.Strides {
			fmt.Fprintf(&b, ",%.1f", s.BW[wi][si].MBps())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCII renders the surface as the paper renders its 3D plots: a
// height-shaded grid, working sets down, strides across.
func (s *Surface) ASCII() string {
	shades := []byte(" .:-=+*#%@")
	maxBW := float64(s.Max())
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (peak %.0f MByte/s)\n", s.Machine, s.Title, s.Max().MBps())
	b.WriteString("          stride->")
	for _, st := range s.Strides {
		fmt.Fprintf(&b, "%4d", st)
	}
	b.WriteByte('\n')
	for wi := len(s.WorkingSets) - 1; wi >= 0; wi-- {
		fmt.Fprintf(&b, "%8s |", s.WorkingSets[wi])
		for si := range s.Strides {
			level := 0
			if maxBW > 0 {
				level = int(float64(s.BW[wi][si]) / maxBW * float64(len(shades)-1))
			}
			ch := shades[level]
			b.WriteString("   ")
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders the first working-set row as aligned stride and
// bandwidth columns: the whole of a one-row surface, the shape of
// the fixed-working-set sweeps of Figures 9-14.
func (s *Surface) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", s.Machine, s.Title)
	b.WriteString("stride   MByte/s\n")
	for i, st := range s.Strides {
		fmt.Fprintf(&b, "%6d   %7.1f\n", st, s.BW[0][i].MBps())
	}
	return b.String()
}
