package main

import (
	"math/rand/v2"
	"sort"

	"repro/internal/serve"
	"repro/internal/surface"
	"repro/internal/units"
)

// Generator streams: each use of the seed draws from its own stream,
// so adding draws to one never shifts another.
const (
	streamStrides uint64 = iota + 1
	streamMix
	streamClient // + window × serveClients + client index
)

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// loadStrideBands and transferStrideBands are groups of paper strides
// whose surfaces cost about the same host time on every machine,
// measured by stride on the full grid. A sweep run covers strides 1
// and 16 plus one stride drawn from each band of a surface's kind, so
// every seed does a comparable amount of work. Transfer surfaces draw
// from one band because their cells cost twice as much.
var (
	loadStrideBands     = [][]int{{6, 7, 8, 12}, {15, 31, 32, 96, 192}}
	transferStrideBands = [][]int{{7, 8, 12, 15, 31, 48, 96}}
)

// pickStrides returns the ascending stride axes a sweep run covers:
// one for the load surfaces and one for the transfer surfaces.
func pickStrides(seed int64) (load, transfer []int) {
	r := newRNG(seed, streamStrides)
	pick := func(bands [][]int) []int {
		out := []int{1, 16}
		for _, band := range bands {
			out = append(out, band[r.IntN(len(band))])
		}
		sort.Ints(out)
		return out
	}
	load = pick(loadStrideBands)
	return load, pick(transferStrideBands)
}

// Operation kinds of the serve mix.
const (
	opSingle = iota
	opBatch
	opPlan
	numOps
)

var opNames = [numOps]string{"bandwidth", "batch", "plan"}

// Mix shape: per 100 operations, 70 single queries, 10 batches of
// batchSize, 20 plans, drawn from pools of distinct queries.
const (
	singlePct   = 70
	batchPct    = 10
	batchSize   = 64
	numSingles  = 384
	numBatches  = 96
	numPlans    = 48
	servedMaxWS = units.MB
)

// mix is the distinct queries a serve run draws from.
type mix struct {
	singles []serve.BandwidthRequest
	batches [][]int // indices into singles
	plans   []serve.PlanRequest
}

// servedGrid is the grid the serve set-up sweeps: the paper strides
// and working sets up to servedMaxWS (`figures -fast -maxws 1M`).
func servedGrid() ([]int, []units.Bytes) {
	return surface.PaperStrides, surface.WorkingSets(units.KB/2, servedMaxWS)
}

// transferModes are the modes each machine's surfaces exist for.
var transferModes = map[string][]string{
	"8400": {"fetch"},
	"t3d":  {"fetch", "deposit"},
	"t3e":  {"fetch", "deposit"},
}

var machineKeys = []string{"8400", "t3d", "t3e"}

// offGridStrides are strides between the paper's grid lines.
var offGridStrides = []int{9, 10, 11, 13, 14, 20, 28, 40, 56, 80, 100, 160}

// offHull values lie beyond the served grid.
var (
	offHullWS      = []units.Bytes{4 * units.MB, 8 * units.MB, 16 * units.MB, 64 * units.MB}
	offHullStrides = []int{256, 320, 512}
)

// newMix draws the distinct queries of a serve run: single queries in
// three equal classes — on a grid cell, between grid cells, and beyond
// the grid — so exact, interpolated and analytic answers all occur;
// batches of those singles; and planner requests.
func newMix(seed int64) mix {
	r := newRNG(seed, streamMix)
	strides, wss := servedGrid()
	pick := func(n int) int { return r.IntN(n) }
	var m mix
	for i := 0; i < numSingles; i++ {
		q := serve.BandwidthRequest{Machine: machineKeys[pick(len(machineKeys))], Pattern: "load"}
		if pick(2) == 1 {
			modes := transferModes[q.Machine]
			q.Pattern, q.Mode = "transfer", modes[pick(len(modes))]
		}
		wi := pick(len(wss))
		ws, stride := wss[wi], strides[pick(len(strides))]
		switch i % 3 {
		case 1: // between grid lines in both axes
			if wi == len(wss)-1 {
				wi--
			}
			ws = wss[wi] + wss[wi]/2
			stride = offGridStrides[pick(len(offGridStrides))]
		case 2: // beyond the grid in one axis
			if pick(2) == 0 {
				ws = offHullWS[pick(len(offHullWS))]
			} else {
				stride = offHullStrides[pick(len(offHullStrides))]
			}
		}
		q.WS, q.Stride = serve.Size(ws), stride
		m.singles = append(m.singles, q)
	}
	// Element j of every batch is a single of class j%3, so batches
	// share one class make-up and differ only in which queries they
	// hold; the batch tail then reflects the service, not the draw.
	for i := 0; i < numBatches; i++ {
		b := make([]int, batchSize)
		for j := range b {
			b[j] = 3*pick(numSingles/3) + j%3
		}
		m.batches = append(m.batches, b)
	}
	planBytes := []units.Bytes{16 * units.KB, 64 * units.KB, 256 * units.KB, units.MB, 4 * units.MB, 8 * units.MB}
	planStrides := []int{1, 2, 3, 4, 8, 16, 32, 64, 128}
	for i := 0; i < numPlans; i++ {
		n := planBytes[pick(len(planBytes))]
		if pick(2) == 1 {
			n += n / 2
		}
		m.plans = append(m.plans, serve.PlanRequest{
			Machine: machineKeys[pick(len(machineKeys))],
			Bytes:   serve.Size(n),
			Stride:  planStrides[pick(len(planStrides))],
		})
	}
	return m
}

// nextOp draws a client's next operation: its kind and the index of
// the distinct query in that kind's pool.
func (m *mix) nextOp(r *rand.Rand) (kind, idx int) {
	switch x := r.IntN(100); {
	case x < singlePct:
		return opSingle, r.IntN(len(m.singles))
	case x < singlePct+batchPct:
		return opBatch, r.IntN(len(m.batches))
	default:
		return opPlan, r.IntN(len(m.plans))
	}
}

// headline is one Table A/B cell that lies on a paper surface, with the
// value the paper reports (the same rows report.HeadlineLocal and
// report.HeadlineCopy print).
type headline struct {
	surf      string
	ws        units.Bytes
	stride    int
	paperMBps float64
}

var headlines = []headline{
	{"load/8400", 4 * units.KB, 1, 1100},
	{"load/8400", 64 * units.KB, 1, 700},
	{"load/8400", 2 * units.MB, 1, 600},
	{"load/8400", 2 * units.MB, 16, 120},
	{"load/8400", 8 * units.MB, 1, 150},
	{"load/8400", 8 * units.MB, 16, 28},
	{"load/t3d", 4 * units.KB, 1, 600},
	{"load/t3d", 8 * units.MB, 1, 195},
	{"load/t3d", 8 * units.MB, 16, 43},
	{"load/t3e", 4 * units.KB, 1, 1100},
	{"load/t3e", 64 * units.KB, 1, 700},
	{"load/t3e", 8 * units.MB, 1, 430},
	{"load/t3e", 8 * units.MB, 16, 42},
	{"fetch/8400", 8 * units.MB, 16, 22},
	{"deposit/t3d", 8 * units.MB, 1, 125},
	{"deposit/t3d", 8 * units.MB, 16, 55},
	{"fetch/t3e", 8 * units.MB, 1, 350},
	{"fetch/t3e", 8 * units.MB, 16, 140},
	{"deposit/t3e", 8 * units.MB, 16, 70},
}

// paperDevPct is the mean absolute deviation, in percent, of measured
// MB/s values from the paper's.
func paperDevPct(paper, measured []float64) float64 {
	var s float64
	for i := range paper {
		d := (measured[i] - paper[i]) / paper[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return 100 * s / float64(len(paper))
}
