package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/probe"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// The Figure 6 load surface (T3E) at reduced axes: small enough to
// commit as a golden fixture and regenerate in CI, large enough to
// cross the L1/L2 boundaries and the stream-unit stride texture.
var (
	goldenStrides = []int{1, 2, 4, 8, 16, 32, 64, 128}
	goldenWS      = surface.WorkingSets(units.KB/2, 512*units.KB)
)

func goldenFig06(workers int) *surface.Surface {
	p := sweep.NewPool(func() machine.Machine { return machine.NewT3E(4) }, workers)
	return bench.LoadSurface(p, 0, goldenStrides, goldenWS)
}

// TestGoldenFig06 pins the reduced Figure 6 surface byte-for-byte
// against the committed fixture, so any simulator change that moves a
// measured number is visible in review. Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenFig06 .
func TestGoldenFig06(t *testing.T) {
	checkGolden(t, "fig06_t3e_reduced.csv", goldenFig06(1).CSV())
}

// The Figures 9-11 local-copy curves at reduced axes: both strided
// sides on all three machines at one working set. Source and
// destination together overflow every cache (the 8400's 4 MB L3
// included), so copies evict dirty lines through each hierarchy.
var (
	goldenCopyStrides = []int{1, 2, 7, 16, 64}
	goldenCopyWS      = 4 * units.MB
)

// goldenCopyCurves renders the reduced copy curves as CSV with every
// bandwidth at full float64 precision.
func goldenCopyCurves() string {
	var b strings.Builder
	b.WriteString("machine,strided,stride,bytes_per_s\n")
	for _, mk := range []func() machine.Machine{
		func() machine.Machine { return machine.NewDEC8400(4) },
		func() machine.Machine { return machine.NewT3D(4) },
		func() machine.Machine { return machine.NewT3E(4) },
	} {
		p := sweep.NewPool(mk, 1)
		for _, stridedLoads := range []bool{true, false} {
			side := "stores"
			if stridedLoads {
				side = "loads"
			}
			c := bench.CopyCurve(p, 0, goldenCopyWS, goldenCopyStrides, stridedLoads)
			for i, st := range c.Strides {
				fmt.Fprintf(&b, "%s,%s,%d,%s\n", c.Machine, side, st,
					strconv.FormatFloat(float64(c.BW[0][i]), 'g', -1, 64))
			}
		}
	}
	return b.String()
}

// TestGoldenCopyCurves pins the reduced Figures 9-11 curves. Nothing
// else in the suite covers LocalCopy's load-then-store priming, so a
// change to either prime path that moved a copy figure shows here.
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenCopyCurves .
func TestGoldenCopyCurves(t *testing.T) {
	checkGolden(t, "fig09-11_copy_reduced.csv", goldenCopyCurves())
}

// checkGolden compares got with the fixture testdata/name, or
// rewrites the fixture when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create the fixture)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from golden fixture %s;\n"+
			"if the simulator change is intentional, regenerate with UPDATE_GOLDEN=1", path)
	}
}

// TestSweepDeterminism is the -j contract on a real artifact: the
// same surface swept sequentially and over four workers must be
// byte-identical, CSV and ASCII both.
func TestSweepDeterminism(t *testing.T) {
	seq := goldenFig06(1)
	par := goldenFig06(4)
	if seq.CSV() != par.CSV() {
		t.Error("Figure 6 CSV differs between -j 1 and -j 4")
	}
	if seq.ASCII() != par.ASCII() {
		t.Error("Figure 6 ASCII differs between -j 1 and -j 4")
	}
}

// TestTransferSweepDeterminism covers the error-returning sweep path:
// a remote fetch surface must also be worker-count invariant.
func TestTransferSweepDeterminism(t *testing.T) {
	run := func(workers int) *surface.Surface {
		p := sweep.NewPool(func() machine.Machine { return machine.NewT3E(4) }, workers)
		s, err := bench.TransferSurface(p, 0, machine.PreferredPartner(p.Machine()),
			machine.Fetch, []int{1, 8, 64}, []units.Bytes{8 * units.KB, 256 * units.KB})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if run(1).CSV() != run(4).CSV() {
		t.Error("T3E fetch surface CSV differs between -j 1 and -j 4")
	}
}

// TestTraceDeterminism is the tracing half of the -j contract: with
// event tracing enabled, the per-point captures (counters and trace
// JSON both) of a parallel sweep must be byte-identical to the
// sequential ones — traces merge by point index, never by completion
// order.
func TestTraceDeterminism(t *testing.T) {
	grid := []struct {
		ws     units.Bytes
		stride int
	}{
		{16 * units.KB, 1}, {16 * units.KB, 7}, {128 * units.KB, 4},
		{128 * units.KB, 16}, {512 * units.KB, 1}, {512 * units.KB, 64},
	}
	capture := func(workers int) []string {
		p := sweep.NewPool(func() machine.Machine {
			m := machine.NewT3E(4)
			m.Probe().EnableTrace(0)
			return m
		}, workers)
		caps, err := p.RunCaptured(len(grid), func(m machine.Machine, i int) error {
			bench.LoadSum(m, 0, access.Pattern{
				Base: machine.LocalBase(0), WorkingSet: grid[i].ws, Stride: grid[i].stride})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(caps))
		for i, c := range caps {
			var b strings.Builder
			if err := probe.WriteTrace(&b, c.Events); err != nil {
				t.Fatal(err)
			}
			out[i] = c.Counters.NonZero().Table() + "\n" + b.String()
		}
		return out
	}
	seq, par := capture(1), capture(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("point %d: trace/counter capture differs between -j 1 and -j 4", i)
		}
	}
}
