package coherence

import (
	"testing"

	"repro/internal/access"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/stream"
	"repro/internal/units"
)

func testSystem() (*Controller, []*node.Node) {
	mem := node.New(-1, node.Config{
		CPU: cpu.Config{Clock: units.Clock{MHz: 75}},
		DRAM: node.DRAMSpec{Banks: 8, InterleaveBytes: 64, RowBytes: 2 * units.KB,
			LineBytes: 64, SeqOcc: 426, SeqOccNoStream: 426, WordOcc: 285,
			WriteSeqOcc: 270, WriteWordOcc: 100, BankOcc: 150, RowPenalty: 20,
			Stream: stream.Config{Enabled: true, Streams: 8, Threshold: 2, LineBytes: 64}},
	})
	b := bus.New(bus.Config{Arb: 30, Snoop: 45, LineOcc: 40, WordOcc: 20, C2COcc: 385})
	c := New(b, mem, probe.Scope{})
	var nodes []*node.Node
	for i := 0; i < 2; i++ {
		nd := node.New(i, node.Config{
			CPU: cpu.EV5(),
			Levels: []node.LevelSpec{{
				Cache: cache.Config{Name: "L1", Size: 8 * units.KB, LineSize: 32, Assoc: 1,
					Write: cache.WriteBack, Alloc: cache.ReadWriteAllocate},
			}},
			DRAM: node.DRAMSpec{LineBytes: 64, WriteWordOcc: 100},
			WB:   node.WriteBufferSpec{Entries: 4, EntryBytes: 32, SlackEntries: 2},
		})
		nd.SetBackend(c)
		nodes = append(nodes, nd)
	}
	c.Attach(nodes)
	return c, nodes
}

func TestFillFromMemory(t *testing.T) {
	c, _ := testSystem()
	done := c.Fill(0, 0x1000, 64, 0)
	if done <= 0 {
		t.Fatalf("memory fill should take time")
	}
	if st := c.Stats(); st.MemFills != 1 || st.Pulls != 0 {
		t.Errorf("counters: %+v pulls=%d", st.MemFills, st.Pulls)
	}
}

func TestCacheToCacheIntervention(t *testing.T) {
	c, nodes := testSystem()
	// Node 1 dirties a line; node 0's fill must be supplied c2c.
	nodes[1].StoreWord(0x2000)
	if !nodes[1].HoldsDirty(0x2000) {
		t.Fatalf("store should dirty node 1's cache")
	}
	c.Fill(0, 0x2000, 64, 0)
	if c.Stats().Pulls != 1 {
		t.Fatalf("dirty line should be pulled cache-to-cache")
	}
	if nodes[1].HoldsDirty(0x2000) {
		t.Errorf("supplier's copy should be clean after intervention")
	}
}

func TestWriteInvalidatesOtherCaches(t *testing.T) {
	c, nodes := testSystem()
	nodes[1].LoadWord(0x3000)
	if !nodes[1].Holds(0x3000) {
		t.Fatalf("load should cache the line")
	}
	c.Write(0, 0x3000, 64, 0)
	if nodes[1].Holds(0x3000) {
		t.Errorf("remote write must invalidate snooping caches")
	}
}

func TestC2CSustainedRate(t *testing.T) {
	// Sustained cache-to-cache pulls run at the bus intervention
	// rate: 64 B per 460 ns = ~139 MB/s, the Figure 2 ceiling.
	c, nodes := testSystem()
	var done units.Time
	for i := 0; i < 64; i++ {
		a := access.Addr(0x10000 + i*64)
		nodes[1].StoreWord(a) // line dirty at the producer
		done = c.Fill(0, a, 64, done)
	}
	bw := units.BW(64*64, done).MBps()
	if bw < 110 || bw > 170 {
		t.Errorf("sustained c2c = %.0f MB/s, want ~139", bw)
	}
	if c.Stats().Pulls != 64 {
		t.Errorf("pulls = %d, want 64", c.Stats().Pulls)
	}
}

func TestResetClearsState(t *testing.T) {
	c, _ := testSystem()
	c.Fill(0, 0x100, 64, 0)
	c.Reset()
	if st := c.Stats(); st.MemFills != 0 || st.Pulls != 0 {
		t.Errorf("reset should zero counters")
	}
}

// TestOthersDirty follows OthersDirty through the two ways another
// node's dirt can go while one node runs: a cache-to-cache supply
// cleans it, a bus write invalidates it. A node's own dirt never
// counts.
func TestOthersDirty(t *testing.T) {
	c, nodes := testSystem()
	if c.OthersDirty(0) || c.OthersDirty(1) {
		t.Fatal("a cold machine has dirt")
	}
	nodes[1].StoreWord(0x2000)
	nodes[1].StoreWord(0x4000)
	if !c.OthersDirty(0) || c.OthersDirty(1) {
		t.Fatalf("node 1 dirty: OthersDirty(0) = %v, OthersDirty(1) = %v; want true, false",
			c.OthersDirty(0), c.OthersDirty(1))
	}
	c.Fill(0, 0x2000, 64, 0)
	if !c.OthersDirty(0) {
		t.Fatal("one of node 1's two dirty lines supplied, OthersDirty(0) = false")
	}
	c.Write(0, 0x4000, 64, 0)
	if c.OthersDirty(0) {
		t.Fatal("node 1's dirt supplied and invalidated, OthersDirty(0) = true")
	}
}
