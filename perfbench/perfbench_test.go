package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/units"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	la, ta := pickStrides(7)
	lb, tb := pickStrides(7)
	if !reflect.DeepEqual(la, lb) || !reflect.DeepEqual(ta, tb) {
		t.Errorf("seed 7 gave %v %v then %v %v", la, ta, lb, tb)
	}
	for _, c := range []struct {
		kind    string
		strides []int
		bands   [][]int
	}{{"load", la, loadStrideBands}, {"transfer", ta, transferStrideBands}} {
		a := c.strides
		if len(a) != 2+len(c.bands) || indexOf(a, 1) < 0 || indexOf(a, 16) < 0 {
			t.Errorf("%s: strides %v must include 1, 16 and one per band", c.kind, a)
		}
		for i := 1; i < len(a); i++ {
			if a[i] <= a[i-1] {
				t.Errorf("%s: strides %v not ascending", c.kind, a)
			}
		}
	}
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		l, tr := pickStrides(seed)
		distinct[toString(l)+"/"+toString(tr)] = true
	}
	if len(distinct) < 3 {
		t.Errorf("20 seeds gave only %d stride sets", len(distinct))
	}
	m1, m2 := newMix(3), newMix(3)
	if !reflect.DeepEqual(m1, m2) {
		t.Error("newMix(3) differs between calls")
	}
	if reflect.DeepEqual(newMix(3), newMix(4)) {
		t.Error("newMix gives the same queries for seeds 3 and 4")
	}
	r1, r2 := newRNG(3, streamClient), newRNG(3, streamClient)
	for i := 0; i < 100; i++ {
		k1, i1 := m1.nextOp(r1)
		k2, i2 := m1.nextOp(r2)
		if k1 != k2 || i1 != i2 {
			t.Fatalf("op %d: client streams diverge for one seed", i)
		}
	}
}

func toString(xs []int) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteString(strconv.Itoa(x))
		b.WriteByte(',')
	}
	return b.String()
}

func TestMixShape(t *testing.T) {
	m := newMix(1)
	if len(m.singles) != numSingles || len(m.batches) != numBatches || len(m.plans) != numPlans {
		t.Fatalf("mix has %d/%d/%d singles/batches/plans", len(m.singles), len(m.batches), len(m.plans))
	}
	for _, b := range m.batches {
		if len(b) != batchSize {
			t.Fatalf("batch of %d, want %d", len(b), batchSize)
		}
		for j, i := range b {
			if i%3 != j%3 {
				t.Fatalf("batch element %d is single %d, of another class", j, i)
			}
		}
	}
	var counts [numOps]int
	r := newRNG(1, streamClient)
	const n = 100000
	for i := 0; i < n; i++ {
		k, _ := m.nextOp(r)
		counts[k]++
	}
	want := [numOps]float64{singlePct, batchPct, 100 - singlePct - batchPct}
	for k, c := range counts {
		if got := 100 * float64(c) / n; math.Abs(got-want[k]) > 1 {
			t.Errorf("%s: %.1f%% of operations, want %.0f%%", opNames[k], got, want[k])
		}
	}
	for _, q := range m.singles {
		if q.Machine == "8400" && q.Mode == "deposit" {
			t.Fatalf("mix asks the 8400 for a deposit, which it does not support: %+v", q)
		}
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so tail must sort
		}
		return xs
	}
	cases := []struct {
		n        int
		pct, val float64
	}{
		{1000, 99, 990}, // exactly 10 samples beyond p99
		{999, 95, 950},  // p99 would leave 9 beyond
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10},
		{19, 100, 19}, // no percentile qualifies: the maximum
		{1, 100, 1},
	}
	for _, c := range cases {
		pct, v := tail(seq(c.n))
		if pct != c.pct || v != c.val {
			t.Errorf("n=%d: tail = p%g %g, want p%g %g", c.n, pct, v, c.pct, c.val)
		}
		if pct < 100 {
			beyond := c.n - rankAt(pct, c.n)
			if beyond < 10 {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, pct, beyond)
			}
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ns := func(x int) time.Duration { return time.Duration(x) }
	spans := []span{
		{ID: 1, Name: "run", Start: ns(0), End: ns(100)},
		// Two overlapping workers' cells cover [10,50] and one more
		// covers [60,70]: 50 of the run's 100 ns.
		{ID: 2, Parent: 1, Name: "cell", Start: ns(10), End: ns(40)},
		{ID: 3, Parent: 1, Name: "cell", Start: ns(20), End: ns(50)},
		{ID: 4, Parent: 1, Name: "cell", Start: ns(60), End: ns(70)},
		// A child overrunning its parent counts only inside it.
		{ID: 5, Parent: 4, Name: "leaf", Start: ns(65), End: ns(80)},
		{ID: 6, Name: "other", Start: ns(0), End: ns(7)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"run": 50, "cell": 30 + 30 + 5, "leaf": 15, "other": 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", 0, 9)
	child := tr.begin("cell", root, 9)
	tr.end(child)
	tr.end(root)
	var none *tracer
	if id := none.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	none.end(1)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Req != 9 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 2 {
		t.Errorf("wrote %d span lines, want 2", n)
	}
}

// referenceSurface rebuilds one surface of the reference over a small
// grid, as a sweep would return it.
func referenceSurface(t *testing.T, ref reference, id string, strides []int, wss []units.Bytes) *surface.Surface {
	t.Helper()
	s := surface.New("x", id, strides, wss)
	for wi, ws := range wss {
		for si, st := range strides {
			c, ok := ref[cellKey{id, ws, st}]
			if !ok {
				t.Fatalf("reference lacks %s %d %d", id, ws, st)
			}
			s.Set(wi, si, c.bw)
		}
	}
	return s
}

func TestReferenceCheckCatchesOneFlippedBit(t *testing.T) {
	ref, err := parseReference(referenceText)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * len(surface.PaperStrides) * len(paperWorkingSets()); len(ref) != want {
		t.Fatalf("reference has %d cells, want the full grid of %d", len(ref), want)
	}
	strides, wss := []int{1, 16}, []units.Bytes{4 * units.KB, 8 * units.MB}
	s := referenceSurface(t, ref, "fetch/t3e", strides, wss)
	if checked, failed := ref.checkSurface("fetch/t3e", s); checked != 4 || failed != 0 {
		t.Fatalf("clean surface: %d checked, %d failed", checked, failed)
	}
	s.BW[1][0] = units.BytesPerSec(math.Float64frombits(math.Float64bits(float64(s.BW[1][0])) ^ 1))
	if _, failed := ref.checkSurface("fetch/t3e", s); failed != 1 {
		t.Errorf("one flipped bit: %d cells failed, want 1", failed)
	}
	if _, failed := ref.checkSurface("deposit/t3e", s); failed == 0 {
		t.Error("a surface checked under another surface's name passed")
	}

	k := cellKey{"load/8400", 8 * units.MB, 16}
	c := ref[k]
	if !ref.checkCell(k, c.bw, c.c) {
		t.Fatal("reference cell does not match itself")
	}
	bumped := c.c
	bumped.dramAccesses++
	if ref.checkCell(k, c.bw, bumped) {
		t.Error("checkCell missed a changed counter")
	}
}

// flipBit flips the lowest mantissa bit of a bandwidth.
func flipBit(v units.BytesPerSec) units.BytesPerSec {
	return units.BytesPerSec(math.Float64frombits(math.Float64bits(float64(v)) ^ 1))
}

func TestSetupCheckCatchesWrongCells(t *testing.T) {
	ref, err := parseReference(referenceText)
	if err != nil {
		t.Fatal(err)
	}
	sp := loadSurfaces[1]
	mc := report.Factories()[sp.machine]()
	md := analytic.New(mc.Calibration())
	strides, wss := []int{1, 16}, []units.Bytes{units.KB, units.MB}
	// A pruned surface: one simulated cell from the reference, the
	// rest from the model, stored as a set-up stores it.
	build := func() *surface.Surface {
		s := surface.New(mc.Name(), "local load bandwidth", strides, wss)
		s.CalHash = mc.Calibration().Hash()
		for wi, ws := range wss {
			for si, stride := range strides {
				if wi == 1 && si == 1 {
					s.Set(wi, si, ref[cellKey{sp.id, ws, stride}].bw)
					continue
				}
				bw, err := sp.modelBW(md, ws, stride)
				if err != nil {
					t.Fatal(err)
				}
				s.Set(wi, si, bw)
				s.SetSource(wi, si, surface.Analytic)
			}
		}
		return s
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSurface(sp.storeKey(mc, strides, wss), build()); err != nil {
		t.Fatal(err)
	}
	check := func(s *surface.Surface, simulated int) (attempted, failed int64) {
		o := newOutcome()
		sv := &served{dir: dir, built: []built{{spec: sp, s: s, simulated: simulated}}}
		if err := checkSetup(sv, ref, o); err != nil {
			t.Fatal(err)
		}
		return o.attempted, o.failed
	}
	if a, f := check(build(), 1); a != 6 || f != 0 {
		t.Fatalf("clean set-up: %d checked, %d failed; want 6 and 0", a, f)
	}
	if _, f := check(build(), 0); f == 0 {
		t.Error("a surface with no simulated cells passed")
	}
	s := build()
	s.BW[1][1] = flipBit(s.BW[1][1])
	if _, f := check(s, 1); f != 2 {
		t.Errorf("flipped simulated cell: %d checks failed, want 2 (reference and store)", f)
	}
	s = build()
	s.BW[0][0] = flipBit(s.BW[0][0])
	if _, f := check(s, 1); f != 2 {
		t.Errorf("flipped analytic cell: %d checks failed, want 2 (model and store)", f)
	}
}

// TestReferenceMatchesFigureCSVs ties the reference to the committed
// figure artifacts: every cell, rounded as the CSVs print it, equals
// the published value.
func TestReferenceMatchesFigureCSVs(t *testing.T) {
	ref, err := parseReference(referenceText)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"load/8400": "fig01_8400_local_load.csv", "fetch/8400": "fig02_8400_remote_pull.csv",
		"load/t3d": "fig03_t3d_local_load.csv", "fetch/t3d": "fig04_t3d_fetch.csv",
		"deposit/t3d": "fig05_t3d_deposit.csv", "load/t3e": "fig06_t3e_local_load.csv",
		"fetch/t3e": "fig07_t3e_fetch.csv", "deposit/t3e": "fig08_t3e_deposit.csv",
	}
	for id, name := range files {
		f, err := os.Open(filepath.Join("..", "out", name))
		if err != nil {
			t.Skipf("figure artifacts not present: %v", err)
		}
		sc := bufio.NewScanner(f)
		var strides []int
		rows := 0
		for sc.Scan() {
			fields := strings.Split(sc.Text(), ",")
			switch {
			case strings.HasPrefix(fields[0], "#"):
			case strings.HasPrefix(fields[0], "ws"):
				for _, s := range fields[1:] {
					v, err := strconv.Atoi(s)
					if err != nil {
						t.Fatal(err)
					}
					strides = append(strides, v)
				}
			default:
				ws, err := units.ParseBytes(fields[0])
				if err != nil {
					t.Fatal(err)
				}
				rows++
				for i, s := range fields[1:] {
					c, ok := ref[cellKey{id, ws, strides[i]}]
					if !ok {
						t.Fatalf("%s: reference lacks ws %d stride %d", id, ws, strides[i])
					}
					if got := strconv.FormatFloat(c.bw.MBps(), 'f', 1, 64); got != s {
						t.Errorf("%s ws %d stride %d: reference %s MB/s, %s says %s", id, ws, strides[i], got, name, s)
					}
				}
			}
		}
		f.Close()
		if rows != len(paperWorkingSets()) {
			t.Errorf("%s: %d rows, want %d", name, rows, len(paperWorkingSets()))
		}
	}
}

func TestHeadlinesLieOnTheGrid(t *testing.T) {
	ref, err := parseReference(referenceText)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range headlines {
		if _, ok := ref[cellKey{h.surf, h.ws, h.stride}]; !ok {
			t.Errorf("headline %+v is not a reference cell", h)
		}
		if h.stride != 1 && h.stride != 16 {
			t.Errorf("headline %+v is at a stride a run may skip", h)
		}
	}
}

func TestErrorRateCountsRefusedRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ln.Close() // nothing listens: the connection is refused

	c := newClient(base)
	defer c.close()
	q := prepared{path: "/v1/bandwidth", body: []byte(`{}`), want: []byte("ok\n")}
	var tl tally
	tl.send(c, opSingle, &q, time.Now())
	if tl.attempted != 1 || tl.failed != 1 || len(tl.samples) != 0 {
		t.Fatalf("refused request: attempted %d failed %d samples %d", tl.attempted, tl.failed, len(tl.samples))
	}
	o := newOutcome()
	o.count(tl.attempted, tl.failed)
	for _, m := range endToEnd {
		o.values[m.name] = 1
	}
	res, err := assemble(false, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("result = %+v, want incorrect with 1 of 1 failed", res)
	}
}

func TestAssembleReportsEveryMetric(t *testing.T) {
	o := newOutcome()
	o.count(5, 0)
	if _, err := assemble(false, o); err == nil {
		t.Error("an untraced run with unmeasured end-to-end metrics assembled")
	}
	res, err := assemble(true, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Errorf("traced result has %d metrics, correct=%v", len(res.Metrics), res.Correct)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with
// the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not present: %v", err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: harness %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, def.EndToEnd)
	check("per_layer", perLayer, def.PerLayer)
	for _, w := range def.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the harness", w.Name)
		}
	}
}

func TestSlicesReportPerSliceFigures(t *testing.T) {
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	var tl tally
	// Slice 0 completes 4 singles and a batch, slice 1 two singles;
	// one single completes after the window and is not counted.
	for _, end := range []float64{0.25, 1.25, 2.5, 4.75} {
		tl.samples = append(tl.samples, newSample(opSingle, sec(end), time.Millisecond))
	}
	tl.samples = append(tl.samples,
		newSample(opBatch, sec(3), 5*time.Millisecond),
		newSample(opSingle, sec(6.25), 3*time.Millisecond),
		newSample(opSingle, sec(9.75), 3*time.Millisecond),
		newSample(opSingle, sec(10.5), 9*time.Millisecond),
	)
	ss := slices(tl, 2*sliceLen)
	if len(ss) != 2 {
		t.Fatalf("%d slices, want 2", len(ss))
	}
	if ss[0].rate != 1 || ss[1].rate != 0.4 {
		t.Errorf("rates %g, %g; want 1, 0.4", ss[0].rate, ss[1].rate)
	}
	if ss[0].p50 != 1 || ss[1].p50 != 3 || ss[0].batches != 1 || ss[1].singles != 2 {
		t.Errorf("slices = %+v", ss)
	}
	if got := medianOf(ss, func(s sliceStats) float64 { return s.rate }); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("median rate %g, want 0.7", got)
	}
	// A window shorter than a slice is one slice holding every sample.
	if short := slices(tl, time.Second); len(short) != 1 || short[0].singles != 7 {
		t.Errorf("short window: %+v", short)
	}
}

func TestMergeAndWidenKeepEveryRequestOnce(t *testing.T) {
	a := tally{attempted: 3, failed: 1, conf: [3]int64{1, 2, 3}, samples: []sample{
		newSample(opSingle, time.Millisecond, 2*time.Millisecond),
		newSample(opBatch, time.Millisecond, 5*time.Millisecond),
	}}
	b := tally{attempted: 2, conf: [3]int64{4, 0, 1}, samples: []sample{
		newSample(opSingle, time.Millisecond, 4*time.Millisecond),
		newSample(opPlan, time.Millisecond, time.Millisecond),
	}}
	all := merge([]tally{a, b})
	if all.attempted != 5 || all.failed != 1 || all.conf != [3]int64{5, 2, 4} {
		t.Errorf("merged counts %d/%d %v", all.attempted, all.failed, all.conf)
	}
	if len(all.samples) != 4 || cap(all.samples) != 4 {
		t.Errorf("merged %d samples in capacity %d, want 4 in 4", len(all.samples), cap(all.samples))
	}
	singles := widen([][]float32{a.latencies32(opSingle), b.latencies32(opSingle)})
	if !reflect.DeepEqual(singles, []float64{2, 4}) || median(singles) != 3 {
		t.Errorf("single latencies %v, want [2 4] with median 3", singles)
	}
}
