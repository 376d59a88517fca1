package analytic

import (
	"fmt"
	"strings"

	"repro/internal/surface"
	"repro/internal/units"
)

// This file is the validation harness's comparison core: it diffs a
// simulated surface against its analytic counterpart cell by cell,
// aggregates the divergence per memory-hierarchy regime, and names
// the mechanism the closed form most plausibly missed at the worst
// cells. The harness itself (driving the simulator) lives in the
// package's external tests and in `memchar -validate`; this side is
// pure comparison so the analytic package never imports the
// simulator.

// CellDiff is one grid cell's divergence.
type CellDiff struct {
	WS     units.Bytes
	Stride int
	Regime string
	Sim    units.BytesPerSec
	Model  units.BytesPerSec
	// RelErr is (model-sim)/sim; +0.10 means the model predicts 10%
	// more bandwidth than the simulator measures.
	RelErr float64
}

// RegimeStat aggregates the divergence of one regime's cells.
type RegimeStat struct {
	Regime     string
	Cells      int
	MeanAbsRel float64
	MaxAbsRel  float64
	// Worst locates the regime's worst cell.
	Worst CellDiff
}

// Report is the divergence report of one surface pair.
type Report struct {
	Machine string
	Title   string
	Cells   []CellDiff
	// Regimes is ordered by first appearance along the working-set
	// axis (L1, L2, ..., DRAM).
	Regimes []RegimeStat
}

// Compare diffs a simulated surface against the analytic surface of
// the same grid. The two must agree on machine, title, and axes — a
// mismatch is a harness bug, not a model divergence.
func Compare(sim, model *surface.Surface, m *Model) (*Report, error) {
	if sim.Machine != model.Machine || sim.Title != model.Title {
		return nil, fmt.Errorf("analytic: comparing %s/%s against %s/%s",
			sim.Machine, sim.Title, model.Machine, model.Title)
	}
	if len(sim.WorkingSets) != len(model.WorkingSets) || len(sim.Strides) != len(model.Strides) {
		return nil, fmt.Errorf("analytic: grid mismatch: %dx%d vs %dx%d",
			len(sim.WorkingSets), len(sim.Strides), len(model.WorkingSets), len(model.Strides))
	}
	r := &Report{Machine: sim.Machine, Title: sim.Title}
	stats := map[string]*RegimeStat{}
	var order []string
	for wi, ws := range sim.WorkingSets {
		regime := m.Regime(ws)
		st, ok := stats[regime]
		if !ok {
			st = &RegimeStat{Regime: regime}
			stats[regime] = st
			order = append(order, regime)
		}
		for si, stride := range sim.Strides {
			simBW := float64(sim.BW[wi][si])
			modelBW := float64(model.BW[wi][si])
			var rel float64
			if simBW != 0 {
				rel = (modelBW - simBW) / simBW
			}
			cell := CellDiff{WS: ws, Stride: stride, Regime: regime,
				Sim: sim.BW[wi][si], Model: model.BW[wi][si], RelErr: rel}
			r.Cells = append(r.Cells, cell)
			st.Cells++
			st.MeanAbsRel += abs(rel)
			if abs(rel) > st.MaxAbsRel {
				st.MaxAbsRel = abs(rel)
				st.Worst = cell
			}
		}
	}
	for _, name := range order {
		st := stats[name]
		if st.Cells > 0 {
			st.MeanAbsRel /= float64(st.Cells)
		}
		r.Regimes = append(r.Regimes, *st)
	}
	return r, nil
}

// Regime returns the named regime's stats.
func (r *Report) Regime(name string) (RegimeStat, bool) {
	for _, st := range r.Regimes {
		if st.Regime == name {
			return st, true
		}
	}
	return RegimeStat{}, false
}

// Check returns an error naming every regime whose mean absolute
// divergence exceeds tol (0.15 = 15%).
func (r *Report) Check(tol float64) error {
	var bad []string
	for _, st := range r.Regimes {
		if st.MeanAbsRel > tol {
			bad = append(bad, fmt.Sprintf("%s %.1f%%", st.Regime, st.MeanAbsRel*100))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("analytic: %s %q diverges beyond %.0f%% per regime: %s",
		r.Machine, r.Title, tol*100, strings.Join(bad, ", "))
}

// Mechanism names the simulator behaviour the closed form most
// plausibly misses at a divergent cell, so the report reads as an
// error budget instead of a number dump.
func (m *Model) Mechanism(title string, ws units.Bytes, stride int) string {
	step := units.Bytes(stride) * units.Word
	lvl := m.providerLevel(ws)
	switch {
	case strings.Contains(title, "deposit"):
		d := m.cal.DRAM
		if stride > 1 && bankOcc(d, step) >= d.WriteWordOcc {
			return "bank-conflict ripple (stride lands every write on one bank)"
		}
		return "write-buffer coalescing transient"
	case strings.Contains(title, "transfer"):
		deepest := m.cal.Levels[len(m.cal.Levels)-1]
		if m.cal.HasBus && ws > deepest.Size/2 && ws <= deepest.Size*4 {
			return "partial cache survival around the consumer's deepest cache"
		}
		return "pipeline fill / window drain transient"
	case lvl == len(m.cal.Levels):
		if m.cal.DRAM.StreamsEnabled && step <= m.cal.DRAM.LineBytes {
			return "stream re-detection at segment starts"
		}
		return "bank ripple below the word-channel occupancy"
	case lvl > 0 && (ws == m.cal.Levels[lvl].Size || ws*2 > m.cal.Levels[lvl].Size):
		return "regime transition (working set at the cache boundary)"
	case lvl > 0 && step == m.cal.Levels[lvl].LineBytes:
		return "full-line fill per word (stride dip at the provider line size)"
	}
	return "issue/occupancy crossover transient"
}

// String renders the report: the per-regime divergence table followed
// by each regime's worst cell and the mechanism it points at. The
// rendering is deterministic, so it can be a golden fixture.
func (r *Report) String() string {
	return r.render(nil)
}

// Render is String with mechanism attribution from the model.
func (r *Report) Render(m *Model) string {
	return r.render(m)
}

func (r *Report) render(m *Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s: analytic model vs simulation\n", r.Machine, r.Title)
	b.WriteString("regime     cells   mean|err|    max|err|   worst cell\n")
	for _, st := range r.Regimes {
		fmt.Fprintf(&b, "%-10s %5d   %8.1f%%   %8.1f%%   ws=%s stride=%d (%.1f vs %.1f MB/s)\n",
			st.Regime, st.Cells, st.MeanAbsRel*100, st.MaxAbsRel*100,
			st.Worst.WS, st.Worst.Stride, st.Worst.Model.MBps(), st.Worst.Sim.MBps())
	}
	if m != nil {
		b.WriteString("missed mechanisms at the worst cells:\n")
		for _, st := range r.Regimes {
			fmt.Fprintf(&b, "  %-10s %s\n", st.Regime,
				m.Mechanism(r.Title, st.Worst.WS, st.Worst.Stride))
		}
	}
	return b.String()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
