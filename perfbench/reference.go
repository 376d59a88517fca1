package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// referenceText is every cell of the paper grid (Figures 1-8, all 21
// strides, 0.5 KB-8 MB) with its simulated bandwidth and pinned
// counters, recorded once with `perfbench -record`.
//
//go:embed testdata/reference.txt
var referenceText string

// cellKey addresses one cell of one surface.
type cellKey struct {
	surf   string
	ws     units.Bytes
	stride int
}

// cellRef is a cell's recorded outcome.
type cellRef struct {
	bw units.BytesPerSec
	c  counters
}

type reference map[cellKey]cellRef

const referenceHeader = "# surface ws_bytes stride bw_bytes_per_s loads l1_misses dram_accesses bus_transactions torus_bytes"

// parseReference decodes the recorded grid. Bandwidths are written in
// shortest round-trip form, so parsing restores the exact bits.
func parseReference(text string) (reference, error) {
	ref := make(reference)
	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		t := sc.Text()
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		f := strings.Fields(t)
		if len(f) != 9 {
			return nil, fmt.Errorf("reference line %d: want 9 fields, got %d", line, len(f))
		}
		var ints [7]int64
		for i, j := range []int{1, 2, 4, 5, 6, 7, 8} {
			v, err := strconv.ParseInt(f[j], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("reference line %d: %w", line, err)
			}
			ints[i] = v
		}
		bw, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("reference line %d: %w", line, err)
		}
		k := cellKey{surf: f[0], ws: units.Bytes(ints[0]), stride: int(ints[1])}
		ref[k] = cellRef{bw: units.BytesPerSec(bw), c: counters{ints[2], ints[3], ints[4], ints[5], ints[6]}}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ref, nil
}

// sameBits reports whether two bandwidths are bit-identical.
func sameBits(a, b units.BytesPerSec) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// sameSurface reports whether two surfaces have the same grid and
// bit-identical cells with the same provenance.
func sameSurface(a, b *surface.Surface) bool {
	if !reflect.DeepEqual(a.WorkingSets, b.WorkingSets) || !reflect.DeepEqual(a.Strides, b.Strides) {
		return false
	}
	for wi := range a.WorkingSets {
		for si := range a.Strides {
			if !sameBits(a.BW[wi][si], b.BW[wi][si]) || a.SourceAt(wi, si) != b.SourceAt(wi, si) {
				return false
			}
		}
	}
	return true
}

// checkSurface compares every cell of s, a surface of spec id, with
// the reference. It returns how many cells it checked and how many
// differ (a cell absent from the reference differs).
func (r reference) checkSurface(id string, s *surface.Surface) (checked, failed int) {
	for wi, ws := range s.WorkingSets {
		for si, stride := range s.Strides {
			checked++
			want, ok := r[cellKey{id, ws, stride}]
			if !ok || !sameBits(want.bw, s.BW[wi][si]) {
				failed++
			}
		}
	}
	return checked, failed
}

// checkCell compares one traced cell, bandwidth and counters, with
// the reference.
func (r reference) checkCell(k cellKey, bw units.BytesPerSec, c counters) bool {
	want, ok := r[k]
	return ok && sameBits(want.bw, bw) && want.c == c
}

// recordReference sweeps the full paper grid of all eight surfaces
// through the cell kernel and writes the reference to w.
func recordReference(w io.Writer) error {
	specs := allSurfaces()
	wss := paperWorkingSets()
	strides := surface.PaperStrides
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# perfbench reference: Figures 1-8 on the full paper grid, one cell per line.")
	fmt.Fprintln(bw, "# Re-record with `perfbench -record testdata/reference.txt` only when simulated results are meant to change.")
	fmt.Fprintln(bw, referenceHeader)
	fs := report.Factories()
	for _, sp := range specs {
		p := sweep.NewPool(fs[sp.machine], poolWidth)
		n := len(wss) * len(strides)
		bws := make([]units.BytesPerSec, n)
		cs := make([]counters, n)
		err := p.Run(n, func(m machine.Machine, i int) error {
			v, err := sp.cell(m, wss[i/len(strides)], strides[i%len(strides)])
			if err != nil {
				return err
			}
			bws[i] = v
			cs[i] = countersOf(m.Probe().Registry().Snapshot())
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sp.id, err)
		}
		for i := range bws {
			c := cs[i]
			fmt.Fprintf(bw, "%s %d %d %s %d %d %d %d %d\n", sp.id, int64(wss[i/len(strides)]), strides[i%len(strides)],
				strconv.FormatFloat(float64(bws[i]), 'g', -1, 64),
				c.loads, c.l1Misses, c.dramAccesses, c.busTransactions, c.torusBytes)
		}
	}
	return bw.Flush()
}
