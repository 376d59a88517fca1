package bench

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// The plan table's grid: on the T3D the pruner models the 4K row and
// the stride-1 cell at 32K, and sends the other three cells to the
// simulator.
var (
	planStrides = []int{1, 16}
	planWSS     = []units.Bytes{4 * units.KB, 8 * units.KB, 32 * units.KB}
)

// TestPipelinePlan pins the surface pipeline's plan table: for every
// store state and request kind, how many cells the simulator runs,
// what the pool counts, which bytes come back and which bytes the
// store holds afterwards.
func TestPipelinePlan(t *testing.T) {
	cells := len(planStrides) * len(planWSS)
	full := surfBytes(t, LoadSurface(t3dPool(t, ""), 0, planStrides, planWSS))
	prunedSurf, prunedSim := LoadSurfacePruned(t3dPool(t, ""), 0, planStrides, planWSS)
	pruned := surfBytes(t, prunedSurf)
	if prunedSim == 0 || prunedSim == cells {
		t.Fatalf("pruner simulated %d of %d cells; the table needs a partial surface", prunedSim, cells)
	}

	// Store states, each seeded through the pipeline itself.
	const (
		none = iota
		empty
		complete
		partial
	)
	seed := func(state int) string {
		switch state {
		case none:
			return ""
		case complete:
			dir := t.TempDir()
			LoadSurface(t3dPool(t, dir), 0, planStrides, planWSS)
			return dir
		case partial:
			dir := t.TempDir()
			LoadSurfacePruned(t3dPool(t, dir), 0, planStrides, planWSS)
			return dir
		}
		return t.TempDir()
	}

	for _, tc := range []struct {
		name      string
		state     int
		pruned    bool
		want      []byte
		simulated int
	}{
		{"no store, full", none, false, full, cells},
		{"no store, pruned", none, true, pruned, prunedSim},
		{"miss, full", empty, false, full, cells},
		{"miss, pruned", empty, true, pruned, prunedSim},
		{"complete hit, full", complete, false, full, 0},
		{"complete hit, pruned", complete, true, full, 0},
		{"partial hit, full", partial, false, full, cells - prunedSim},
		{"partial hit, pruned", partial, true, pruned, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := seed(tc.state)
			p := t3dPool(t, dir)
			s, simulated, err := sweepSurface(p, loadRequest(p, 0, planStrides, planWSS), tc.pruned)
			if err != nil {
				t.Fatal(err)
			}
			if simulated != tc.simulated || p.Points() != int64(tc.simulated) {
				t.Errorf("simulated %d cells, pool counted %d; want %d",
					simulated, p.Points(), tc.simulated)
			}
			if !bytes.Equal(surfBytes(t, s), tc.want) {
				t.Error("returned surface differs from the reference bytes")
			}
			if dir == "" {
				return
			}
			// Write-back: the store now holds exactly what was returned.
			again := t3dPool(t, dir)
			stored, ok := again.Store().GetSurface(LoadSurfaceKey(again.Machine().Calibration(), 0, planStrides, planWSS))
			if !ok {
				t.Fatal("store holds no entry after the request")
			}
			if !bytes.Equal(surfBytes(t, stored), tc.want) {
				t.Error("stored entry differs from the returned surface")
			}
		})
	}
}

// TestPipelineFailingCellKeepsStore: completing a stored partial
// surface whose missing cells cannot be simulated — a Deposit grid on
// the 8400, which has no deposit path — returns the kernel's error,
// simulates only the missing cells and leaves the stored entry as it
// was. (The completion does not fall back to a full re-sweep.)
func TestPipelineFailingCellKeepsStore(t *testing.T) {
	dir := t.TempDir()
	factory := func() machine.Machine { return machine.NewDEC8400(2) }
	p := sweep.NewPool(factory, 1)
	st, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p.SetStore(st)

	strides := []int{1, 4}
	wss := []units.Bytes{units.KB, 4 * units.KB}
	cal := p.Machine().Calibration()
	key := TransferSurfaceKey(cal, 0, 1, machine.Deposit, strides, wss)
	s := surface.New(p.Machine().Name(), "remote transfer bandwidth, "+machine.Deposit.String(), strides, wss)
	s.CalHash = cal.Hash()
	for wi := range wss {
		for si := range strides {
			s.Set(wi, si, units.BytesPerSec(100*wi+si+1))
		}
	}
	s.SetSource(1, 0, surface.Analytic)
	s.SetSource(1, 1, surface.Analytic)
	if err := st.PutSurface(key, s); err != nil {
		t.Fatal(err)
	}
	want := surfBytes(t, s)

	got, err := TransferSurface(p, 0, 1, machine.Deposit, strides, wss)
	if err == nil || got != nil {
		t.Fatalf("completing an 8400 deposit surface: got %v, err %v; want the kernel's error", got, err)
	}
	if p.Points() != 2 {
		t.Errorf("pool counted %d points, want the 2 analytic cells", p.Points())
	}
	reopened, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := reopened.GetSurface(key)
	if !ok {
		t.Fatal("the failed completion dropped the stored entry")
	}
	if !bytes.Equal(surfBytes(t, stored), want) {
		t.Error("the failed completion changed the stored entry")
	}
}
