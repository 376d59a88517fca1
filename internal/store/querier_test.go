package store

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/units"
)

// lookupOracle is the unbound lookup a Querier replaced: it hashes the
// calibration and builds the model on every call, then scans the
// manifest for matching surfaces in manifest order.
func lookupOracle(s *Store, cal machine.Calibration, p Pattern, mode machine.Mode, ws units.Bytes, stride int) (Result, error) {
	model := analytic.New(cal)
	prefix := string(p) + "@"
	if p == PatternTransfer {
		prefix = string(p) + "-" + mode.String() + "@"
	}
	s.mu.Lock()
	var keys []Key
	for _, e := range s.man.Entries {
		if e.Machine == cal.Machine &&
			e.CalHash == cal.Hash() && strings.HasPrefix(e.Pattern, prefix) {
			keys = append(keys, e.Key())
		}
	}
	var surfs []*surface.Surface
	for _, k := range keys {
		if surf, ok := s.load(k); ok {
			surfs = append(surfs, surf)
		}
	}
	s.mu.Unlock()
	for _, surf := range surfs {
		if r, ok := serveFrom(surf, model, ws, stride); ok {
			return r, nil
		}
	}
	return analyticResult(model, p, mode, ws, stride)
}

// querierStore stores, for each machine, two overlapping load
// surfaces and one transfer surface per mode the model supports. The
// grids span regime boundaries, and one cell of each surface is an
// analytic fill, so queries reach every branch of the lookup.
func querierStore(t *testing.T, cals []machine.Calibration) *Store {
	t.Helper()
	st := openTest(t, t.TempDir())
	grids := []struct {
		strides []int
		wss     []units.Bytes
	}{
		{[]int{1, 4, 16}, []units.Bytes{2 * units.KB, 4 * units.KB, 64 * units.KB, 1 * units.MB, 2 * units.MB, 8 * units.MB}},
		{[]int{2, 8}, []units.Bytes{8 * units.KB, 32 * units.KB, 4 * units.MB}},
	}
	put := func(cal machine.Calibration, p Pattern, mode machine.Mode, g int) {
		strides, wss := grids[g].strides, grids[g].wss
		s := surface.New(cal.Machine, "test", strides, wss)
		s.CalHash = cal.Hash()
		for wi := range wss {
			for si := range strides {
				s.Set(wi, si, units.BytesPerSec(1e8/float64(wi+1)/float64(si+1)+float64(g)))
			}
		}
		s.SetSource(1, 1, surface.Analytic)
		if err := st.PutSurface(surfaceKey(cal, p, mode, g, 0, strides, wss), s); err != nil {
			t.Fatal(err)
		}
	}
	for _, cal := range cals {
		put(cal, PatternLoad, machine.Fetch, 0)
		put(cal, PatternLoad, machine.Fetch, 1)
		for _, mode := range []machine.Mode{machine.Fetch, machine.Deposit, machine.NaiveFetch} {
			if _, err := analytic.New(cal).TransferBW(mode, units.MB, 1); err == nil {
				put(cal, PatternTransfer, mode, 0)
			}
		}
	}
	return st
}

// TestQuerierMatchesUnboundLookup: a calibration-bound lookup answers
// every query exactly as the unbound lookup did, and Store.Lookup
// agrees with both, on every machine, pattern and mode — including
// the transfers the model cannot express (deposit on the 8400,
// naive-fetch beyond the T3D), which must fail the same way. A
// Querier does not snapshot the manifest: a surface stored after For
// serves its next Lookup.
func TestQuerierMatchesUnboundLookup(t *testing.T) {
	t.Run("oracle", testQuerierOracle)
	t.Run("put after For", testQuerierSeesLaterPuts)
	t.Run("concurrent puts", testQuerierConcurrentPuts)
}

func testQuerierOracle(t *testing.T) {
	cals := []machine.Calibration{
		machine.NewDEC8400(2).Calibration(),
		machine.NewT3D(2).Calibration(),
		machine.NewT3E(2).Calibration(),
	}
	st := querierStore(t, cals)
	type query struct {
		p    Pattern
		mode machine.Mode
	}
	queries := []query{
		{PatternLoad, machine.Fetch},
		{PatternTransfer, machine.Fetch},
		{PatternTransfer, machine.Deposit},
		{PatternTransfer, machine.NaiveFetch},
	}
	// On-grid, between grid lines, across regime boundaries, and off
	// the hull on both sides of both axes.
	wss := []units.Bytes{units.KB, 2 * units.KB, 3 * units.KB, 4 * units.KB, 6 * units.KB,
		8 * units.KB, 16 * units.KB, 64 * units.KB, 100 * units.KB, units.MB,
		3 * units.MB / 2, 2 * units.MB, 3 * units.MB, 8 * units.MB, 16 * units.MB}
	strides := []int{1, 2, 3, 4, 8, 16, 32}
	tiers := make(map[Confidence]int)
	unsupported := 0
	for _, cal := range cals {
		q := st.For(cal)
		if q.Hash() != cal.Hash() {
			t.Fatalf("%s: Hash = %x, want %x", cal.Machine, q.Hash(), cal.Hash())
		}
		for _, qu := range queries {
			for _, ws := range wss {
				for _, stride := range strides {
					name := fmt.Sprintf("%s %s-%s ws=%v stride=%d", cal.Machine, qu.p, qu.mode, ws, stride)
					got, gerr := q.Lookup(qu.p, qu.mode, ws, stride)
					want, werr := lookupOracle(st, cal, qu.p, qu.mode, ws, stride)
					unbound, uerr := st.Lookup(cal, qu.p, qu.mode, ws, stride)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) || fmt.Sprint(uerr) != fmt.Sprint(werr) {
						t.Fatalf("%s: errors %v / %v, oracle %v", name, gerr, uerr, werr)
					}
					if got != want || unbound != want {
						t.Fatalf("%s: bound %+v, Store.Lookup %+v, oracle %+v", name, got, unbound, want)
					}
					if werr != nil {
						unsupported++
						continue
					}
					tiers[want.Confidence]++
				}
			}
		}
	}
	if tiers[Exact] == 0 || tiers[Interpolated] == 0 || tiers[Analytic] == 0 || unsupported == 0 {
		t.Fatalf("queries missed a branch: tiers %v, unsupported %d", tiers, unsupported)
	}
}

func testQuerierSeesLaterPuts(t *testing.T) {
	cal := machine.NewT3E(2).Calibration()
	st := openTest(t, t.TempDir())
	q := st.For(cal)
	ws, stride := 64*units.KB, 4
	before, err := q.Lookup(PatternLoad, machine.Fetch, ws, stride)
	if err != nil {
		t.Fatal(err)
	}
	if before.Confidence != Analytic || before.BW != q.Model().LoadBW(ws, stride) {
		t.Fatalf("empty store: %+v, want the model's analytic answer", before)
	}
	strides, wss := []int{1, stride}, []units.Bytes{16 * units.KB, ws}
	s := surface.New(cal.Machine, "test", strides, wss)
	s.CalHash = cal.Hash()
	for wi := range wss {
		for si := range strides {
			s.Set(wi, si, units.BytesPerSec(1e8*float64(wi+si+1)))
		}
	}
	if err := st.PutSurface(surfaceKey(cal, PatternLoad, machine.Fetch, 0, 0, strides, wss), s); err != nil {
		t.Fatal(err)
	}
	after, err := q.Lookup(PatternLoad, machine.Fetch, ws, stride)
	if err != nil {
		t.Fatal(err)
	}
	if after.Confidence != Exact || after.BW != s.BW[1][1] {
		t.Fatalf("after Put: %+v, want the stored cell %v exact", after, s.BW[1][1])
	}
}

// testQuerierConcurrentPuts runs Lookups on several goroutines while
// another stores surfaces one by one. Every answer is either the
// model's or a stored cell, an answer once exact stays exact on its
// goroutine (indexes are published in store order), and the writer's
// own Lookup after each Put serves the surface it just stored. Run
// under -race it also checks that the lock-free index read is sound.
func testQuerierConcurrentPuts(t *testing.T) {
	cal := machine.NewT3E(2).Calibration()
	st := openTest(t, t.TempDir())
	q := st.For(cal)
	const puts, readers = 24, 3
	stride := 4
	ws := func(i int) units.Bytes { return units.Bytes(i+1) * 4 * units.KB }
	bw := func(i int) units.BytesPerSec { return units.BytesPerSec(1e8 + float64(i)) }
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen [puts]bool
			for pass := 0; ; pass++ {
				select {
				case <-done:
					if pass > 0 {
						return
					}
				default:
				}
				for i := 0; i < puts; i++ {
					res, err := q.Lookup(PatternLoad, machine.Fetch, ws(i), stride)
					switch {
					case err != nil:
						errs <- err
						return
					case res.Confidence == Exact && res.BW == bw(i):
						seen[i] = true
					case seen[i]:
						errs <- fmt.Errorf("ws %v: %+v after the stored cell was served", ws(i), res)
						return
					case res.Confidence != Analytic || res.BW != q.Model().LoadBW(ws(i), stride):
						errs <- fmt.Errorf("ws %v: %+v, want the stored cell or the model", ws(i), res)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < puts; i++ {
		strides, wss := []int{stride}, []units.Bytes{ws(i)}
		s := surface.New(cal.Machine, "test", strides, wss)
		s.CalHash = cal.Hash()
		s.Set(0, 0, bw(i))
		if err := st.PutSurface(surfaceKey(cal, PatternLoad, machine.Fetch, 0, 0, strides, wss), s); err != nil {
			t.Fatal(err)
		}
		if res, err := q.Lookup(PatternLoad, machine.Fetch, ws(i), stride); err != nil || res.Confidence != Exact || res.BW != bw(i) {
			t.Fatalf("Lookup after Put %d: %+v, %v", i, res, err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
