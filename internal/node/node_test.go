package node

import (
	"testing"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/stream"
	"repro/internal/units"
)

// testConfig builds a small two-level node: an 8KB write-through L1
// over a streamed DRAM, T3D-like but with round numbers.
func testConfig() Config {
	return Config{
		CPU: cpu.Config{
			Name:                  "test",
			Clock:                 units.Clock{MHz: 100}, // 10ns cycle
			LoadSlotCycles:        1,                     // 10ns/element issue
			StoreSlotCycles:       1,
			CopySlotCycles:        2,
			SegmentOverheadCycles: 10,
			HideDepth:             4,
		},
		Levels: []LevelSpec{{
			Cache: cache.Config{Name: "L1", Size: 8 * units.KB, LineSize: 32,
				Assoc: 1, Write: cache.WriteThrough, Alloc: cache.ReadAllocate},
		}},
		DRAM: DRAMSpec{
			Banks: 4, InterleaveBytes: 64, RowBytes: 2 * units.KB, LineBytes: 32,
			SeqOcc: 100, SeqOccNoStream: 200, WordOcc: 300,
			WriteSeqOcc: 100, WriteWordOcc: 150,
			BankOcc: 50, RowPenalty: 40,
			Stream: stream.Config{Enabled: true, Streams: 4, Threshold: 2, LineBytes: 32},
		},
		WB: WriteBufferSpec{Entries: 4, EntryBytes: 32, SlackEntries: 2},
	}
}

func measureLoad(n *Node, ws units.Bytes, stride int) units.BytesPerSec {
	p := access.Pattern{WorkingSet: ws, Stride: stride}
	p.Walk(func(a access.Addr, _ bool) { n.LoadWord(a) }) // prime
	n.ResetTiming()
	p.Walk(func(a access.Addr, seg bool) {
		if seg {
			n.SegmentStart()
		}
		n.LoadWord(a)
	})
	return units.BW(ws, n.Now())
}

func TestL1PlateauIsIssueBound(t *testing.T) {
	n := New(0, testConfig())
	bw := measureLoad(n, 4*units.KB, 1)
	// Issue slot 10ns/element -> 800 MB/s, minus segment overhead.
	if bw.MBps() < 700 || bw.MBps() > 810 {
		t.Errorf("L1 plateau = %v, want ~800 MB/s", bw)
	}
}

func TestDRAMStreamedContiguous(t *testing.T) {
	n := New(0, testConfig())
	bw := measureLoad(n, 256*units.KB, 1)
	// SeqOcc 100ns per 32B line, streamed: 320 MB/s.
	if bw.MBps() < 270 || bw.MBps() > 330 {
		t.Errorf("streamed contiguous DRAM = %v, want ~320 MB/s", bw)
	}
}

func TestDRAMStridedIsWordBound(t *testing.T) {
	n := New(0, testConfig())
	bw := measureLoad(n, 256*units.KB, 8) // 64B stride: every line missed, non-seq
	// WordOcc 300ns per 8B word: ~27 MB/s.
	if bw.MBps() < 20 || bw.MBps() > 32 {
		t.Errorf("strided DRAM = %v, want ~27 MB/s", bw)
	}
}

func TestWorkingSetTiering(t *testing.T) {
	// Bandwidth must be monotonically non-increasing (within noise)
	// from in-cache to out-of-cache working sets.
	n := New(0, testConfig())
	small := measureLoad(n, 4*units.KB, 1)
	n = New(0, testConfig())
	large := measureLoad(n, 512*units.KB, 1)
	if large >= small {
		t.Errorf("out-of-cache (%v) should be slower than in-cache (%v)", large, small)
	}
}

func TestStreamAblation(t *testing.T) {
	cfg := testConfig()
	cfg.DRAM.Stream.Enabled = false
	n := New(0, cfg)
	off := measureLoad(n, 256*units.KB, 1)
	n2 := New(0, testConfig())
	on := measureLoad(n2, 256*units.KB, 1)
	if off >= on {
		t.Errorf("streams off (%v) should be slower than on (%v)", off, on)
	}
	// With streams off, sequential fills pay SeqOccNoStream = 200ns
	// per 32B line: ~160 MB/s.
	if off.MBps() < 135 || off.MBps() > 170 {
		t.Errorf("no-stream contiguous = %v, want ~160 MB/s", off)
	}
}

func TestSegmentOverheadBitesSmallWS(t *testing.T) {
	// High stride on a tiny working set: almost every access starts
	// a segment, so the 100ns overhead dominates — the paper's
	// falling ridge (§5.1).
	n := New(0, testConfig())
	bw := measureLoad(n, units.KB, 127)
	n2 := New(0, testConfig())
	bwLow := measureLoad(n2, units.KB, 2)
	if bw >= bwLow/2 {
		t.Errorf("high-stride small-WS (%v) should collapse vs low stride (%v)", bw, bwLow)
	}
}

func TestStoreContiguousCoalesces(t *testing.T) {
	n := New(0, testConfig())
	p := access.Pattern{WorkingSet: 64 * units.KB, Stride: 1}
	p.Walk(func(a access.Addr, _ bool) { n.StoreWord(a) })
	n.FlushWrites()
	st := n.Stats()
	if st.Stores != p.Words() {
		t.Fatalf("stores counted %d, want %d", st.Stores, p.Words())
	}
	// Contiguous stores coalesce 4:1 into 32B entries draining at
	// WriteSeqOcc 100ns: 320 MB/s; issue bound 800. Elapsed should
	// be near the drain bound.
	bw := units.BW(64*units.KB, n.Now())
	if bw.MBps() < 250 || bw.MBps() > 340 {
		t.Errorf("contiguous store bandwidth = %v, want ~320", bw)
	}
}

func TestStridedStoresSlower(t *testing.T) {
	run := func(stride int) units.BytesPerSec {
		n := New(0, testConfig())
		p := access.Pattern{WorkingSet: 64 * units.KB, Stride: stride}
		p.Walk(func(a access.Addr, _ bool) { n.StoreWord(a) })
		n.FlushWrites()
		return units.BW(64*units.KB, n.Now())
	}
	if s, c := run(8), run(1); s >= c {
		t.Errorf("strided stores (%v) should be slower than contiguous (%v)", s, c)
	}
}

func TestCopyWordMovesDataBothWays(t *testing.T) {
	n := New(0, testConfig())
	cp := access.CopyPattern{SrcBase: 0, DstBase: 1 << 22,
		WorkingSet: 32 * units.KB, LoadStride: 1, StoreStride: 1}
	cp.Walk(func(l, s access.Addr, _ bool) { n.CopyWord(l, s) })
	n.FlushWrites()
	st := n.Stats()
	if st.Loads != cp.Words() || st.Stores != cp.Words() {
		t.Fatalf("copy counted loads=%d stores=%d, want %d", st.Loads, st.Stores, cp.Words())
	}
	// Copy must be slower than a pure load pass of the same size.
	tCopy := n.Now()
	n2 := New(0, testConfig())
	p := access.Pattern{WorkingSet: 32 * units.KB, Stride: 1}
	p.Walk(func(a access.Addr, _ bool) { n2.LoadWord(a) })
	if tCopy <= n2.Now() {
		t.Errorf("copy (%v) should take longer than loads alone (%v)", tCopy, n2.Now())
	}
}

func TestEngineWriteInvalidatesCaches(t *testing.T) {
	n := New(0, testConfig())
	n.LoadWord(0x100) // cache the line
	if !n.Holds(0x100) {
		t.Fatal("line should be cached")
	}
	n.EngineWrite(0x100, 32, n.Now())
	if n.Holds(0x100) {
		t.Errorf("incoming deposit must invalidate the cached line (§3.2)")
	}
}

func TestEngineSequentialFasterThanScattered(t *testing.T) {
	run := func(strideBytes int) units.Time {
		n := New(0, testConfig())
		var done units.Time
		for i := 0; i < 256; i++ {
			done = n.EngineWrite(access.Addr(i*strideBytes), 8, done)
		}
		return done
	}
	if seq, sc := run(8), run(64); seq >= sc {
		t.Errorf("sequential engine writes (%v) should beat scattered (%v)", seq, sc)
	}
}

func TestEngineReadChargesDRAM(t *testing.T) {
	n := New(0, testConfig())
	before := n.Stats().EngineReads
	n.EngineRead(0, 32, 0)
	if n.Stats().EngineReads != before+1 {
		t.Errorf("engine read not counted")
	}
}

func TestResetTimingKeepsCaches(t *testing.T) {
	n := New(0, testConfig())
	p := access.Pattern{WorkingSet: 4 * units.KB, Stride: 1}
	p.Walk(func(a access.Addr, _ bool) { n.LoadWord(a) })
	n.ResetTiming()
	if n.Now() != 0 {
		t.Errorf("clock not reset")
	}
	if !n.Holds(0) {
		t.Errorf("ResetTiming must keep cache contents (primed-cache semantics)")
	}
	if n.Stats().Loads != 0 {
		t.Errorf("stats not reset")
	}
}

func TestInvalidateCaches(t *testing.T) {
	n := New(0, testConfig())
	n.LoadWord(0)
	n.InvalidateCaches()
	if n.Holds(0) {
		t.Errorf("InvalidateCaches left lines behind")
	}
}

func TestHoldsDirty(t *testing.T) {
	cfg := testConfig()
	cfg.Levels[0].Cache.Write = cache.WriteBack
	cfg.Levels[0].Cache.Alloc = cache.ReadWriteAllocate
	n := New(0, cfg)
	n.StoreWord(0x40)
	if !n.HoldsDirty(0x40) {
		t.Errorf("write-back store should leave a dirty line")
	}
}

type fakeBackend struct {
	fills, writes int
	lastNode      int
}

func (f *fakeBackend) Fill(nodeID int, line access.Addr, lb units.Bytes, now units.Time) units.Time {
	f.fills++
	f.lastNode = nodeID
	return now + 500
}

func (f *fakeBackend) Intervenes(nodeID int, line access.Addr) bool { return false }

func (f *fakeBackend) OthersDirty(nodeID int) bool { return false }

func (f *fakeBackend) Write(nodeID int, a access.Addr, nb units.Bytes, now units.Time) units.Time {
	f.writes++
	return now + 100
}

func TestBackendInterceptsMemoryTraffic(t *testing.T) {
	n := New(3, testConfig())
	fb := &fakeBackend{}
	n.SetBackend(fb)
	p := access.Pattern{WorkingSet: 32 * units.KB, Stride: 8}
	p.Walk(func(a access.Addr, _ bool) { n.LoadWord(a) })
	if fb.fills == 0 {
		t.Fatalf("backend saw no fills")
	}
	if fb.lastNode != 3 {
		t.Errorf("backend got node %d, want 3", fb.lastNode)
	}
	if n.DRAMStats().Accesses != 0 {
		t.Errorf("private DRAM must be bypassed when a backend is attached")
	}
	n.StoreWord(1 << 24)
	n.FlushWrites()
	if fb.writes == 0 {
		t.Errorf("backend saw no writes")
	}
}

func TestLoadReadyDoesNotAdvanceClock(t *testing.T) {
	n := New(0, testConfig())
	before := n.Now()
	n.LoadReady(0x2000, 0)
	if n.Now() != before {
		t.Errorf("LoadReady must not advance the clock")
	}
}
