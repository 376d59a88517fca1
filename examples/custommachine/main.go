// Custom machine: the library is not limited to the three systems of
// the paper. This example builds a hypothetical "T3E with a doubled
// memory channel" and compares its characterization against the stock
// T3E — the what-if analysis the copy-transfer model enables.
package main

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/stream"
	"repro/internal/units"
)

// fastNode is a T3E-like node with halved DRAM occupancies (a doubled
// memory channel).
func fastNode() node.Config {
	return node.Config{
		CPU: cpu.EV5(),
		Levels: []node.LevelSpec{
			{Cache: cache.Config{Name: "L1", Size: 8 * units.KB, LineSize: 32,
				Assoc: 1, Write: cache.WriteThrough, Alloc: cache.ReadAllocate}},
			{Cache: cache.Config{Name: "L2", Size: 96 * units.KB, LineSize: 32,
				Assoc: 3, Write: cache.WriteBack, Alloc: cache.ReadWriteAllocate},
				FillOcc: 45.7, WordOcc: 11.4, WriteOcc: 11.4},
		},
		DRAM: node.DRAMSpec{
			Banks: 16, InterleaveBytes: 16, RowBytes: 2 * units.KB, LineBytes: 64,
			SeqOcc: 75, SeqOccNoStream: 267, WordOcc: 190,
			WriteSeqOcc: 80, WriteWordOcc: 15, EngineWordOcc: 23,
			BankOcc: 57, RowPenalty: 12,
			Stream: stream.Config{Enabled: true, Streams: 6, Threshold: 2, LineBytes: 64},
		},
		WB: node.WriteBufferSpec{Entries: 6, EntryBytes: 64, SlackEntries: 4, WriteCombine: true},
	}
}

func main() {
	stock := machine.NewT3E(1)
	fast := node.New(0, fastNode())

	measure := func(n *node.Node, ws units.Bytes, stride int) float64 {
		p := access.Pattern{WorkingSet: ws, Stride: stride}
		p.Walk(func(a access.Addr, _ bool) { n.PrimeRun(a, 0, 1) }) // prime
		n.ResetTiming()
		p.Walk(func(a access.Addr, seg bool) {
			if seg {
				n.SegmentStart()
			}
			n.LoadRun(a, 0, 1)
		})
		return units.BW(ws, n.Now()).MBps()
	}

	fmt.Println("working-set/stride        stock T3E    2x-channel T3E")
	for _, pt := range []struct {
		ws     units.Bytes
		stride int
	}{
		{64 * units.KB, 1},
		{4 * units.MB, 1},
		{4 * units.MB, 16},
	} {
		stock.ColdReset()
		a := bench.LoadSum(stock, 0, access.Pattern{
			Base: machine.LocalBase(0), WorkingSet: pt.ws, Stride: pt.stride})
		fastN := node.New(0, fastNode())
		_ = fast
		b := measure(fastN, pt.ws, pt.stride)
		fmt.Printf("  %6v stride %-3d   %9.0f MB/s   %9.0f MB/s\n",
			pt.ws, pt.stride, a.MBps(), b)
	}
	fmt.Println("\nDoubling the channel lifts the streamed DRAM plateau but the")
	fmt.Println("strided plateau stays access-bound — exactly the imbalance the")
	fmt.Println("paper warns about (§5.5: strided accesses \"stuck\" across a")
	fmt.Println("generation).")
}
