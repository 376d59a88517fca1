package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/units"
)

func fourBank() *DRAM {
	return New(Config{
		Name: "test", Banks: 4, InterleaveBytes: 64, RowBytes: 2 * units.KB,
		RowHit: 30, RowMiss: 120, PerByte: 1,
	})
}

func TestPageModeHit(t *testing.T) {
	d := fourBank()
	d.Access(0, 8, 0) // opens row 0 of bank 0 (row miss)
	done := d.Access(8, 8, 1000)
	if got := done - 1000; got != 38 { // RowHit 30 + 8 bytes
		t.Errorf("page-mode access cost %v, want 38", got)
	}
	s := d.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRowMissCost(t *testing.T) {
	d := fourBank()
	done := d.Access(0, 8, 0)
	if done != 128 { // RowMiss 120 + 8 bytes
		t.Errorf("cold access completes at %v, want 128", done)
	}
}

func TestInterleaveSpreadsConsecutiveLines(t *testing.T) {
	d := fourBank()
	// Four consecutive 64B lines land on four distinct banks and
	// proceed in parallel: all issued at t=0 complete by RowMiss+64.
	var last units.Time
	for i := 0; i < 4; i++ {
		done := d.Access(access.Addr(i*64), 64, 0)
		if done > last {
			last = done
		}
	}
	if last != 184 { // 120 + 64*1, all parallel
		t.Errorf("4-bank parallel completion %v, want 184", last)
	}
	if d.Stats().ConflictWait != 0 {
		t.Errorf("interleaved lines should not conflict: wait=%v", d.Stats().ConflictWait)
	}
}

func TestSameBankStrideSerializes(t *testing.T) {
	// Stride of Banks*InterleaveBytes hits the same bank every time:
	// accesses serialize (the T3E deposit ripple mechanism, §5.6).
	d := fourBank()
	var last units.Time
	for i := 0; i < 4; i++ {
		done := d.Access(access.Addr(i*4*64), 8, 0)
		if done > last {
			last = done
		}
	}
	if d.Stats().ConflictWait == 0 {
		t.Fatalf("same-bank stride should queue")
	}
	// Row hits within the 2KB row, but serialized: first 128, then
	// three more at 38 each.
	if want := units.Time(128 + 3*38); last != want {
		t.Errorf("serialized completion %v, want %v", last, want)
	}
}

func TestOddStrideAvoidsConflicts(t *testing.T) {
	// Odd strides rotate across banks; even strides matching the
	// interleave pattern do not — contrast total conflict wait.
	run := func(strideWords int) units.Time {
		d := fourBank()
		for i := 0; i < 256; i++ {
			d.Access(access.Addr(i*strideWords*8), 8, 0)
		}
		return d.Stats().ConflictWait
	}
	odd, even := run(31), run(32)
	if odd >= even {
		t.Errorf("odd stride conflict wait %v should be < even stride %v", odd, even)
	}
}

func TestPeekDoesNotMutate(t *testing.T) {
	d := fourBank()
	d.Access(0, 8, 0)
	before := d.Stats()
	p1 := d.Peek(8, 8, 500)
	p2 := d.Peek(8, 8, 500)
	if p1 != p2 {
		t.Errorf("Peek not idempotent: %v vs %v", p1, p2)
	}
	if d.Stats() != before {
		t.Errorf("Peek mutated stats")
	}
	if done := d.Access(8, 8, 500); done != p1 {
		t.Errorf("Access after Peek = %v, want %v", done, p1)
	}
}

func TestReset(t *testing.T) {
	d := fourBank()
	d.Access(0, 64, 0)
	d.Reset()
	// After reset the open row is forgotten: row miss again.
	done := d.Access(8, 8, 0)
	if done != 128 {
		t.Errorf("post-reset access cost %v, want cold 128", done)
	}
	d.ResetStats()
	if d.Stats().Accesses != 0 {
		t.Errorf("ResetStats should zero counters")
	}
}

func TestBankDecompositionDisjoint(t *testing.T) {
	// Property: two addresses in different interleave chunks of the
	// same bank never report different banks for the same chunk, and
	// bank indices stay in range.
	d := fourBank()
	f := func(a uint32) bool {
		bi, row := d.bankAndRow(access.Addr(a))
		return bi >= 0 && bi < 4 && row >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{Name: "zero"})
	if d.Config().Banks != 1 || d.Config().InterleaveBytes <= 0 || d.Config().RowBytes <= 0 {
		t.Errorf("zero config should be normalized: %+v", d.Config())
	}
	d.Access(0, 8, 0) // must not panic
}

// TestBankAndRowMatchesDivision checks the shift-and-mask mapping New
// selects for power-of-two geometries against the plain division
// form, over random addresses, and checks that a geometry outside
// that class (3 banks, 48-byte interleave) keeps the division form.
func TestBankAndRowMatchesDivision(t *testing.T) {
	geoms := []struct {
		banks      int
		ilv, row   units.Bytes
		wantShifts bool
	}{
		{4, 64, 2 * units.KB, true},
		{8, 32, 2 * units.KB, true},
		{16, 64, 8 * units.KB, true},
		{2, 4 * units.KB, 2 * units.KB, true}, // interleave wider than a row
		{1, 64, 4 * units.KB, true},
		{3, 48, 2 * units.KB, false},
		{4, 64, 3 * units.KB, false},
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range geoms {
		d := New(Config{Banks: g.banks, InterleaveBytes: g.ilv, RowBytes: g.row})
		if d.shifts != g.wantShifts {
			t.Errorf("%+v: shift form selected = %v, want %v", g, d.shifts, g.wantShifts)
		}
		for i := 0; i < 100000; i++ {
			a := access.Addr(rng.Int63n(1 << 40))
			chunk := int64(a) / int64(g.ilv)
			wantBank := int(chunk % int64(g.banks))
			wantRow := chunk / int64(g.banks) * int64(g.ilv) / int64(g.row)
			if bank, row := d.bankAndRow(a); bank != wantBank || row != wantRow {
				t.Fatalf("%+v: address %#x maps to bank %d row %d, want bank %d row %d",
					g, a, bank, row, wantBank, wantRow)
			}
		}
	}
}
