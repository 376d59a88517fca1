package machine

import (
	"testing"

	"repro/internal/access"
	"repro/internal/units"
)

// Exact-cycle pins. The calibration tests above assert the paper's
// numbers within tolerance; these pin selected scenarios to the
// simulator's exact current output so a small perturbation of a
// model constant — a flipped operator in a header size, a row-buffer
// size, a chunking bound (the flipop mutation class) — cannot hide
// inside the ±25% band. When a deliberate model change moves one of
// these, re-pin the value from the failure message.

// remoteLoadTime issues transparent remote loads from node 0 into
// node 1's memory — the naive path every MPP wires through its
// request/response header sizes — and returns the elapsed time.
func remoteLoadTime(m Machine, words int64) units.Time {
	m.ColdReset()
	n := m.Node(0)
	base := LocalBase(1)
	for i := int64(0); i < words; i++ {
		n.LoadRun(base+access.Addr(i*int64(units.Word)), 0, 1)
	}
	return n.Now()
}

// stridedLoadTime measures one primed pass of strided local loads —
// wide enough strides cross DRAM rows, so the row-buffer geometry is
// on the clock.
func stridedLoadTime(m Machine, ws units.Bytes, stride int) units.Time {
	m.ColdReset()
	n := m.Node(0)
	p := access.Pattern{Base: LocalBase(0), WorkingSet: ws, Stride: stride}
	c := access.NewCursor(p)
	for {
		a, _, ok := c.Next()
		if !ok {
			break
		}
		n.LoadRun(a, 0, 1)
	}
	m.ResetTiming()
	c.Reset()
	for {
		a, seg, ok := c.Next()
		if !ok {
			break
		}
		if seg {
			n.SegmentStart()
		}
		n.LoadRun(a, 0, 1)
	}
	return n.Now()
}

func TestPinNaiveRemoteLoadPaths(t *testing.T) {
	cases := []struct {
		name string
		m    Machine
		want units.Time
	}{
		{"t3d", NewT3D(4), 356849.66666666663},
		{"t3e", NewT3E(4), 142733.44166666942},
		{"t3e-nostreams", NewT3ENoStreams(4), 142733.44166666942},
	}
	for _, c := range cases {
		if got := remoteLoadTime(c.m, 512); got != c.want {
			t.Errorf("%s: 512 naive remote loads took %.17g, pinned %.17g", c.name, float64(got), float64(c.want))
		}
	}
}

func TestPinNaiveFetchTransfer(t *testing.T) {
	m := NewT3D(4)
	m.ColdReset()
	cp := access.CopyPattern{SrcBase: LocalBase(1), DstBase: LocalBase(0),
		WorkingSet: 64 * units.KB, LoadStride: 1, StoreStride: 1}
	el, err := m.Transfer(1, 0, cp, Options{Mode: NaiveFetch})
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if want := units.Time(5709984.333333333); el != want {
		t.Errorf("T3D naive fetch of 64 KB took %.17g, pinned %.17g", float64(el), float64(want))
	}
}

func TestPinDRAMRowGeometry(t *testing.T) {
	// Stride 64 words = 512 B: several accesses per 2 KB row, so the
	// row-buffer size shapes the timing on every machine.
	cases := []struct {
		name string
		m    Machine
		want units.Time
	}{
		{"dec8400", NewDEC8400(4), 298844288.0000003},
		{"t3d", NewT3D(1), 195036842.6666669},
		{"t3e", NewT3E(1), 199229568.00000036},
	}
	for _, c := range cases {
		if got := stridedLoadTime(c.m, 8*units.MB, 64); got != c.want {
			t.Errorf("%s: strided DRAM pass took %.17g, pinned %.17g", c.name, float64(got), float64(c.want))
		}
	}
}

func TestPinPullTransferChunking(t *testing.T) {
	// 600 KB does not divide the 8400's 256 KB consume buffer: two
	// full chunks plus an 88 KB tail, so both the buffer size and the
	// tail arithmetic are on the clock.
	m := NewDEC8400(4)
	m.ColdReset()
	cp := access.CopyPattern{SrcBase: LocalBase(0), DstBase: LocalBase(1),
		WorkingSet: 600 * units.KB, LoadStride: 1, StoreStride: 1}
	el, err := m.Transfer(0, 1, cp, Options{Mode: Fetch})
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if want := units.Time(10908012.000017192); el != want {
		t.Errorf("8400 pull of 600 KB took %.17g, pinned %.17g", float64(el), float64(want))
	}
}

func TestPinCalibrationHashes(t *testing.T) {
	// The calibration hash is the store's cache key: every model
	// constant that feeds it — bank geometry, occupancies, header
	// sizes — is pinned here as one signature per canonical machine.
	// A legitimate model change re-pins from the failure message; an
	// accidental constant flip fails loudly instead of silently
	// keying a new, wrong artifact family.
	cases := []struct {
		name string
		m    Machine
		want uint64
	}{
		{"dec8400", NewDEC8400(4), 0x80c4d9be17ee9086},
		{"t3d", NewT3D(1), 0xffbd005432797ab3},
		{"t3e", NewT3E(1), 0xbd035d765e289137},
		{"t3e-nostreams", NewT3ENoStreams(1), 0xc67ec51f9172a449},
	}
	for _, c := range cases {
		if got := c.m.Calibration().Hash(); got != c.want {
			t.Errorf("%s calibration hash = %#x, pinned %#x", c.name, got, c.want)
		}
	}
}

func TestPinSharedDRAMRowAccounting(t *testing.T) {
	// The 8400's shared-memory row-buffer geometry is not part of any
	// node calibration, so pin it through the probe counters: a fixed
	// strided pass over DRAM must split into exactly this many row
	// hits and misses.
	m := NewDEC8400(4)
	stridedLoadTime(m, 8*units.MB, 64)
	snap := m.Probe().Registry().Snapshot()
	hits, misses := snap.Count("mem.dram.row_hits"), snap.Count("mem.dram.row_misses")
	if hits != 1015808 || misses != 32768 {
		t.Errorf("shared DRAM pass: %d row hits / %d row misses, pinned 1015808/32768", hits, misses)
	}
}

func TestPinPipelinedChunkTail(t *testing.T) {
	// 600 KB in pipelined 256 KB chunks: two full chunks plus an
	// 88 KB tail, so the per-chunk remainder arithmetic is on the
	// clock (the unchunked path never computes a tail).
	m := NewDEC8400(4)
	m.ColdReset()
	cp := access.CopyPattern{SrcBase: LocalBase(0), DstBase: LocalBase(1),
		WorkingSet: 600 * units.KB, LoadStride: 1, StoreStride: 1}
	el, err := m.Transfer(0, 1, cp, Options{Mode: Fetch, Pipelined: true, ChunkBytes: 256 * units.KB})
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if want := units.Time(10907755.999999287); el != want {
		t.Errorf("pipelined 600 KB pull took %.17g, pinned %.17g", float64(el), float64(want))
	}
}
