package store

import (
	"testing"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/units"
)

// lookupFixture stores one synthetic all-simulated load surface whose
// working sets all sit in the T3D's DRAM regime (its only cache is
// the 8 KB L1), so in-hull queries interpolate rather than fall back.
func lookupFixture(t *testing.T) (*Store, machine.Calibration, *surface.Surface) {
	t.Helper()
	cal := machine.NewT3D(1).Calibration()
	strides := []int{1, 4, 16}
	wss := []units.Bytes{1 * units.MB, 2 * units.MB, 4 * units.MB}
	model := analytic.New(cal)
	for _, ws := range wss {
		if model.Regime(ws) != model.Regime(wss[0]) {
			t.Fatalf("fixture grid spans regimes: %s at %v vs %s at %v",
				model.Regime(ws), ws, model.Regime(wss[0]), wss[0])
		}
	}
	s := surface.New(cal.Machine, "test load bandwidth", strides, wss)
	s.CalHash = cal.Hash()
	for wi := range wss {
		for si := range strides {
			s.Set(wi, si, units.BytesPerSec(1e8/float64(wi+1)/float64(si+1)))
		}
	}
	st := openTest(t, t.TempDir())
	k := surfaceKey(cal, PatternLoad, machine.Fetch, 0, 0, strides, wss)
	if err := st.PutSurface(k, s); err != nil {
		t.Fatal(err)
	}
	return st, cal, s
}

func TestLookupExactCell(t *testing.T) {
	st, cal, s := lookupFixture(t)
	r, err := st.Lookup(cal, PatternLoad, machine.Fetch, s.WorkingSets[1], s.Strides[2])
	if err != nil {
		t.Fatal(err)
	}
	if r.Confidence != Exact {
		t.Fatalf("confidence = %v, want Exact", r.Confidence)
	}
	if r.BW != s.BW[1][2] {
		t.Errorf("BW = %v, want the stored cell %v", r.BW, s.BW[1][2])
	}
}

// TestLookupInterpolationBounded: an in-regime off-grid query
// interpolates log2-bilinearly, so the answer must (a) equal the
// surface's own interpolator and (b) lie within the bracketing cell
// values — the error bound of a convex combination.
func TestLookupInterpolationBounded(t *testing.T) {
	st, cal, s := lookupFixture(t)
	ws, stride := 3*units.MB, 8 // between rows 1-2 and columns 1-2
	r, err := st.Lookup(cal, PatternLoad, machine.Fetch, ws, stride)
	if err != nil {
		t.Fatal(err)
	}
	if r.Confidence != Interpolated {
		t.Fatalf("confidence = %v, want Interpolated", r.Confidence)
	}
	if want := s.At(ws, stride); r.BW != want {
		t.Errorf("BW = %v, want the surface interpolant %v", r.BW, want)
	}
	lo, hi := s.BW[2][2], s.BW[1][1] // corner extremes of the bracketing cell
	if r.BW < lo || r.BW > hi {
		t.Errorf("interpolant %v outside bracketing cell range [%v, %v]", r.BW, lo, hi)
	}
}

// TestLookupRegimeBoundaryFallsBack: a query whose bracketing working
// sets straddle an analytic regime boundary (the T3D's L1 capacity)
// must refuse to interpolate and answer from the model instead.
func TestLookupRegimeBoundaryFallsBack(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	model := analytic.New(cal)
	strides := []int{1, 16}
	wss := []units.Bytes{4 * units.KB, 1 * units.MB} // L1 regime vs DRAM regime
	if model.Regime(wss[0]) == model.Regime(wss[1]) {
		t.Fatalf("fixture grid does not straddle a regime boundary")
	}
	s := surface.New(cal.Machine, "test load bandwidth", strides, wss)
	s.CalHash = cal.Hash()
	for wi := range wss {
		for si := range strides {
			s.Set(wi, si, units.BytesPerSec(1e8))
		}
	}
	st := openTest(t, t.TempDir())
	k := surfaceKey(cal, PatternLoad, machine.Fetch, 0, 0, strides, wss)
	if err := st.PutSurface(k, s); err != nil {
		t.Fatal(err)
	}

	ws, stride := 64*units.KB, 4
	r, err := st.Lookup(cal, PatternLoad, machine.Fetch, ws, stride)
	if err != nil {
		t.Fatal(err)
	}
	if r.Confidence != Analytic {
		t.Fatalf("confidence = %v, want Analytic across the regime boundary", r.Confidence)
	}
	if want := model.LoadBW(ws, stride); r.BW != want {
		t.Errorf("BW = %v, want the model's %v", r.BW, want)
	}
}

// TestLookupRefusesAnalyticCells: cells an earlier pruned sweep
// filled from the model are not measurements; exact and interpolated
// serves must skip them.
func TestLookupRefusesAnalyticCells(t *testing.T) {
	st, cal, s := lookupFixture(t)
	s.SetSource(1, 2, surface.Analytic)
	k := surfaceKey(cal, PatternLoad, machine.Fetch, 0, 0, s.Strides, s.WorkingSets)
	if err := st.PutSurface(k, s); err != nil {
		t.Fatal(err)
	}
	r, err := st.Lookup(cal, PatternLoad, machine.Fetch, s.WorkingSets[1], s.Strides[2])
	if err != nil {
		t.Fatal(err)
	}
	if r.Confidence != Analytic {
		t.Errorf("confidence = %v, want Analytic when the exact cell is an analytic fill", r.Confidence)
	}
}

func TestLookupOffHull(t *testing.T) {
	st, cal, _ := lookupFixture(t)
	// Below the smallest stored working set: nothing to bracket.
	r, err := st.Lookup(cal, PatternLoad, machine.Fetch, 16*units.KB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Confidence != Analytic {
		t.Errorf("confidence = %v, want Analytic off the hull", r.Confidence)
	}
}
