package remote

import (
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/torus"
	"repro/internal/units"
)

func t3dLikeNode(id int) *node.Node {
	return node.New(id, node.Config{
		CPU: cpu.EV4(),
		Levels: []node.LevelSpec{{Cache: cache.Config{Name: "L1", Size: 8 * units.KB,
			LineSize: 32, Assoc: 1, Write: cache.WriteThrough, Alloc: cache.ReadAllocate}}},
		DRAM: node.DRAMSpec{Banks: 4, InterleaveBytes: 32, RowBytes: 2 * units.KB,
			LineBytes: 32, SeqOcc: 164, SeqOccNoStream: 267, WordOcc: 186,
			EngineWordOcc: 120, WriteSeqOcc: 100, WriteWordOcc: 114, BankOcc: 60},
		WB: node.WriteBufferSpec{Entries: 6, EntryBytes: 32, SlackEntries: 4},
	})
}

func testNet() *torus.Network {
	return torus.New(torus.Config{X: 2, Y: 2, Z: 1, NIOverhead: 100, NIPerByte: 3.5,
		LinkPerByte: 4, HopLatency: 30, RecvFactor: 0.5, SharedNI: true})
}

func TestFetchFIFOPipelines(t *testing.T) {
	net := testNet()
	src, dst := t3dLikeNode(0), t3dLikeNode(2)
	cp := access.CopyPattern{SrcBase: 0, DstBase: 1 << 32, WorkingSet: 64 * units.KB,
		LoadStride: 1, StoreStride: 1}
	deep := FetchFIFO(net, src, dst, cp, FIFOConfig{Depth: 16, RequestBytes: 16,
		ResponseBytes: 16, IssueSlot: 13.3})

	net2 := testNet()
	src2, dst2 := t3dLikeNode(0), t3dLikeNode(2)
	shallow := FetchFIFO(net2, src2, dst2, cp, FIFOConfig{Depth: 1, RequestBytes: 16,
		ResponseBytes: 16, IssueSlot: 13.3})
	if deep >= shallow {
		t.Errorf("deeper FIFO (%v) should beat depth-1 (%v)", deep, shallow)
	}
}

func TestFetchFIFOZeroDepthNormalized(t *testing.T) {
	net := testNet()
	cp := access.CopyPattern{WorkingSet: units.KB, LoadStride: 1, StoreStride: 1, DstBase: 1 << 32}
	el := FetchFIFO(net, t3dLikeNode(0), t3dLikeNode(2), cp, FIFOConfig{RequestBytes: 16,
		ResponseBytes: 16, IssueSlot: 13.3})
	if el <= 0 {
		t.Fatalf("transfer should take time")
	}
}

func TestERegContiguousVectorizes(t *testing.T) {
	cfg := ERegConfig{Registers: 512, BlockBytes: 64, IssueSlot: 6.7}
	cp := access.CopyPattern{SrcBase: 0, DstBase: 1 << 32, WorkingSet: 64 * units.KB,
		LoadStride: 1, StoreStride: 1}
	net := testNet()
	contig := EReg(net, t3dLikeNode(0), t3dLikeNode(2), cp, Put, cfg)

	cp.StoreStride = 16
	net2 := testNet()
	strided := EReg(net2, t3dLikeNode(0), t3dLikeNode(2), cp, Put, cfg)
	if contig >= strided {
		t.Errorf("vectorized contiguous blocks (%v) should beat per-word strided (%v)", contig, strided)
	}
}

func TestERegGetAndPutMoveSameData(t *testing.T) {
	cfg := ERegConfig{Registers: 512, BlockBytes: 64, IssueSlot: 6.7}
	cp := access.CopyPattern{SrcBase: 0, DstBase: 1 << 32, WorkingSet: 8 * units.KB,
		LoadStride: 1, StoreStride: 1}
	net := testNet()
	local, rem := t3dLikeNode(0), t3dLikeNode(2)
	put := EReg(net, local, rem, cp, Put, cfg)
	if rem.Stats().EngineWrites == 0 {
		t.Errorf("put should write at the remote node")
	}
	net2 := testNet()
	local2, rem2 := t3dLikeNode(0), t3dLikeNode(2)
	get := EReg(net2, local2, rem2, cp, Get, cfg)
	if local2.Stats().EngineWrites == 0 {
		t.Errorf("get should write at the local node")
	}
	ratio := float64(put) / float64(get)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("contiguous put (%v) and get (%v) should be comparable", put, get)
	}
}

func TestDepositRouterLocalVsRemote(t *testing.T) {
	net := testNet()
	nodes := []*node.Node{t3dLikeNode(0), t3dLikeNode(1), t3dLikeNode(2), t3dLikeNode(3)}
	r := NewDepositRouter(net, func(a access.Addr) int { return int(a >> 32) },
		nodes, 8, probe.Scope{})

	// Local write does not touch the network.
	r.Write(nodes[0], 0x100, 32, 0)
	if r.RemoteWrites() != 0 || net.Stats().MessagesSent != 0 {
		t.Errorf("local write must not use the network")
	}

	// Remote write is routed and tracked.
	injected := r.Write(nodes[0], access.Addr(2)<<32, 32, 0)
	if r.RemoteWrites() != 1 || net.Stats().MessagesSent != 1 {
		t.Errorf("remote write not routed")
	}
	if r.LastDelivery <= injected {
		t.Errorf("delivery (%v) should complete after injection (%v)", r.LastDelivery, injected)
	}
	if nodes[2].Stats().EngineWrites != 1 {
		t.Errorf("destination engine should absorb the deposit")
	}
}

// timeHeap is the binary min-heap the E-register engine used before
// the sorted ring, kept as the reference priority queue.
type timeHeap []units.Time

func (h *timeHeap) push(t units.Time) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func (h *timeHeap) popMin() units.Time {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && s[l] < s[small] {
			small = l
		}
		if r < len(s) && s[r] < s[small] {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return min
}

// TestRingMatchesHeap drives the sorted ring and the reference heap
// with the same completion-time streams, retiring exactly as EReg
// does once every register is busy, and checks every retired minimum
// (the only value EReg consumes) and the multiset left at the end.
func TestRingMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	streams := []struct {
		name string
		next func(i int, last units.Time) units.Time
	}{
		// Each completion later than the last: EReg's common case.
		{"monotone", func(_ int, last units.Time) units.Time {
			return last + units.Time(1+rng.Intn(50))/4
		}},
		// Mostly later, with runs of equal times.
		{"ties", func(_ int, last units.Time) units.Time {
			if rng.Intn(3) == 0 {
				return last
			}
			return last + units.Time(rng.Intn(3))
		}},
		// Arbitrary order over a coarse range, so ties recur too.
		{"out-of-order", func(_ int, _ units.Time) units.Time {
			return units.Time(rng.Intn(4096)) / 4
		}},
		// A rising stream that now and then falls far back.
		{"mostly-monotone", func(i int, last units.Time) units.Time {
			if i%97 == 0 {
				return last - units.Time(rng.Intn(800))
			}
			return last + units.Time(rng.Intn(20))
		}},
	}
	for _, regs := range []int{1, 2, 7, 512} {
		for _, st := range streams {
			ring := newTimeRing(regs)
			heap := make(timeHeap, 0, regs)
			var last units.Time
			for i := 0; i < 20000; i++ {
				v := st.next(i, last)
				last = v
				if !ring.full() {
					if len(heap) == regs {
						t.Fatalf("registers=%d %s step %d: ring has room, heap is full", regs, st.name, i)
					}
					ring.insert(v)
					heap.push(v)
					continue
				}
				want := heap.popMin()
				heap.push(v)
				if got := ring.min(); got != want {
					t.Fatalf("registers=%d %s step %d: ring retires %v, heap %v", regs, st.name, i, got, want)
				}
				ring.replaceMin(v)
			}
			if ring.n != len(heap) {
				t.Fatalf("registers=%d %s: ring holds %d times, heap %d", regs, st.name, ring.n, len(heap))
			}
			for k := 0; len(heap) > 0; k++ {
				want := heap.popMin()
				got := ring.buf[(ring.head+k)%regs]
				if got != want {
					t.Fatalf("registers=%d %s: final multiset element %d is %v in the ring, %v in the heap",
						regs, st.name, k, got, want)
				}
			}
		}
	}
}
