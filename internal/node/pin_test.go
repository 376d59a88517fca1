package node

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/probe"
	"repro/internal/units"
)

// allocConfig is a three-level node whose write-back L2 and L3 allocate
// on stores without write combining, so a strided store run fetches
// every line and its stores stall once the fetch backlog outgrows the
// miss-queue slack.
func allocConfig() Config {
	c := combiningConfig()
	c.WB.WriteCombine = false
	return c
}

// engineConfig is testConfig with a cheaper per-word occupancy for
// the engines' isolated reads than for processor misses.
func engineConfig() Config {
	c := testConfig()
	c.DRAM.EngineWordOcc = 70
	return c
}

// pinScript drives n through every entry point, recording the clock
// after each step and the values the engine calls return.
func pinScript(n *Node) string {
	var b strings.Builder
	step := func(name string, f func()) {
		f()
		fmt.Fprintf(&b, "%-22s %v\n", name, n.Now())
	}
	step("load-run-seq", func() { n.LoadRun(0, 8, 2048) })
	step("load-run-strided", func() { n.LoadRun(0x100000, 72, 512) })
	step("segments", func() {
		for i := 0; i < 3; i++ {
			n.SegmentStart()
		}
	})
	step("load-words", func() {
		for i := int64(0); i < 300; i++ {
			n.LoadRun(access.Addr(0x200000+i*40), 0, 1)
		}
	})
	step("load-ready", func() {
		fmt.Fprintf(&b, "  ready %v\n", n.LoadReady(0x300000, n.Now()))
	})
	step("store-run-seq", func() { n.StoreRun(0x10000, 8, 1024) })
	step("store-run-strided", func() { n.StoreRun(0x30000, 96, 300) })
	step("store-words", func() {
		for i := int64(0); i < 300; i++ {
			n.StoreRun(access.Addr(0x400000+i*136), 0, 1)
		}
	})
	step("copy-run", func() { n.CopyRun(0x500000, 8, 0x600000, 8, 1500) })
	step("copy-run-strided", func() { n.CopyRun(0x700000, 40, 0x800000, 104, 400) })
	step("copy-words", func() {
		for i := int64(0); i < 300; i++ {
			n.CopyRun(access.Addr(0x900000+i*8), 0, access.Addr(0xa00000+i*200), 0, 1)
		}
	})
	step("engine", func() {
		now := n.Now()
		for i := int64(0); i < 40; i++ {
			now = n.EngineWrite(access.Addr(0x600000+i*8), units.Word, now)
		}
		for i := int64(0); i < 20; i++ {
			now = n.EngineWrite(access.Addr(0xb00000+i*4096), 24, now)
		}
		for i := int64(0); i < 40; i++ {
			now = n.EngineRead(access.Addr(0xc00000+i*16), 16, now)
		}
		for i := int64(0); i < 20; i++ {
			now = n.EngineRead(access.Addr(0xd00000+i*4096), 40, now)
		}
		fmt.Fprintf(&b, "  engine done %v\n", now)
	})
	step("flush", n.FlushWrites)
	return b.String()
}

// TestOperationsPinned pins the node's entry points to exact cycles.
// The plateau tests in node_test.go check bandwidths within a band,
// and the machine-level pins reach the node only through the three
// modelled machines; this replays one fixed script of every entry point —
// per-word and per-run loads, stores and copies, segment restarts,
// engine reads and writes, write-allocate store stalls, fills through
// a coherence backend — on small nodes and compares every clock
// reading and every non-zero counter with testdata/pins.txt. A
// dropped counter update or a flipped operator in a cost expression
// moves the clock or a counter and cannot hide inside a band. After a
// deliberate model change, regenerate the file with UPDATE_GOLDEN=1
// and review the diff.
func TestOperationsPinned(t *testing.T) {
	var b strings.Builder
	for _, tc := range []struct {
		name    string
		cfg     func() Config
		backend bool
	}{
		{"private", testConfig, false},
		{"engine-word-occ", engineConfig, false},
		{"backend", testConfig, true},
		{"three-level-alloc", allocConfig, false},
		{"three-level-backend", allocConfig, true},
	} {
		cfg := tc.cfg()
		p := probe.New()
		cfg.Probe = p.Scope("node")
		n := New(0, cfg)
		if tc.backend {
			n.SetBackend(&logBackend{})
		}
		fmt.Fprintf(&b, "== %s\n%s", tc.name, pinScript(n))
		b.WriteString(p.Registry().Snapshot().Table())
		for i, s := range n.CacheStats() {
			fmt.Fprintf(&b, "cache %d %+v\n", i, s)
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "pins.txt")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (UPDATE_GOLDEN=1 regenerates): %v", err)
	}
	if got != string(want) {
		t.Fatalf("node pins moved (UPDATE_GOLDEN=1 regenerates; review the diff):\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want and got that differ, by line
// number.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
