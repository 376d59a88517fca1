package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/units"
)

// The warm-fixture grid: small enough to simulate in well under a
// second, shaped so the tests can hit all three confidence tiers.
var (
	warmStrides = []int{1, 4, 16}
	warmWSS     = []units.Bytes{16 * units.KB, 64 * units.KB}
)

// warmDir simulates one small T3E load surface into a fresh store
// directory and returns it. The machine is the same NewT3E(4) the
// server's shard describes, so the calibration hashes line up and the
// stored cells serve exact answers.
func warmDir(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	p := sweep.Seq(machine.NewT3E(4))
	p.SetStore(st)
	bench.LoadSurface(p, 0, warmStrides, warmWSS)
	return dir
}

// newServer builds a Server over dir.
func newServer(t testing.TB, dir string, workers int) *Server {
	t.Helper()
	s, err := New(Config{StoreDir: dir, Workers: workers})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return s
}

// do fires one request at the handler and returns the recorder.
func do(t testing.TB, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// post fires a bandwidth query and decodes the response.
func post(t testing.TB, s *Server, path, body string) (int, []byte) {
	t.Helper()
	w := do(t, s, http.MethodPost, path, body)
	return w.Code, w.Body.Bytes()
}

func decodeBW(t testing.TB, b []byte) BandwidthResponse {
	t.Helper()
	var r BandwidthResponse
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	return r
}

func decodeErr(t testing.TB, b []byte) ErrorBody {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	return e
}

func TestConfidenceTiers(t *testing.T) {
	s := newServer(t, warmDir(t), 0)
	cases := []struct {
		name string
		body string
		want string
	}{
		// A stored simulated grid cell.
		{"exact", `{"machine":"t3e","pattern":"load","ws":"16k","stride":4}`, "exact"},
		// Exact working set, stride between stored cells 4 and 16.
		{"interpolated", `{"machine":"t3e","pattern":"load","ws":"16k","stride":8}`, "interpolated"},
		// Far above the stored hull: degrades to the model, never 500.
		{"out-of-hull", `{"machine":"t3e","pattern":"load","ws":"512M","stride":4}`, "analytic"},
		// Nothing stored for transfers at all.
		{"transfer-analytic", `{"machine":"t3e","pattern":"transfer","mode":"fetch","ws":"8M","stride":16}`, "analytic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := post(t, s, "/v1/bandwidth", c.body)
			if code != http.StatusOK {
				t.Fatalf("status %d, body %s", code, body)
			}
			r := decodeBW(t, body)
			if r.Confidence != c.want {
				t.Fatalf("confidence = %q, want %q (body %s)", r.Confidence, c.want, body)
			}
			if r.BWMBps <= 0 {
				t.Fatalf("bw_mbps = %v, want > 0", r.BWMBps)
			}
		})
	}
	// Each answer is counted once, under its machine and tier.
	metrics := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	for _, want := range []string{
		"serve.t3e.answers.exact 1\n",
		"serve.t3e.answers.interpolated 1\n",
		"serve.t3e.answers.analytic 2\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, metrics)
		}
	}
}

func TestExactMatchesStoredCell(t *testing.T) {
	dir := warmDir(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cal := machine.NewT3E(4).Calibration()
	surf, ok := st.GetSurface(bench.LoadSurfaceKey(cal, 0, warmStrides, warmWSS))
	if !ok {
		t.Fatal("warm surface missing from store")
	}
	want := surf.BW[0][1].MBps() // ws=16k, stride=4

	s := newServer(t, dir, 0)
	code, body := post(t, s, "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":16384,"stride":4}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	r := decodeBW(t, body)
	if r.BWMBps != want {
		t.Fatalf("bw_mbps = %v, want stored cell %v", r.BWMBps, want)
	}
	if r.Confidence != "exact" {
		t.Fatalf("confidence = %q, want exact", r.Confidence)
	}
}

func TestHandlerErrors(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"malformed-json", "POST", "/v1/bandwidth", `{"machine":`, http.StatusBadRequest, CodeBadRequest},
		{"unknown-machine", "POST", "/v1/bandwidth", `{"machine":"cm5","pattern":"load","ws":"4k","stride":1}`, http.StatusNotFound, CodeUnknownMachine},
		{"bad-pattern", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"scan","ws":"4k","stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"bad-mode", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"transfer","mode":"push","ws":"4k","stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"zero-ws", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":0,"stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"negative-ws", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":-4096,"stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"bad-ws-string", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":"lots","stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"zero-stride", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":"4k","stride":0}`, http.StatusBadRequest, CodeBadRequest},
		{"unsupported-deposit", "POST", "/v1/bandwidth", `{"machine":"8400","pattern":"transfer","mode":"deposit","ws":"4k","stride":1}`, http.StatusUnprocessableEntity, CodeUnsupported},
		{"plan-unknown-machine", "POST", "/v1/plan", `{"machine":"cm5","bytes":"1M","stride":2}`, http.StatusNotFound, CodeUnknownMachine},
		{"plan-zero-bytes", "POST", "/v1/plan", `{"machine":"t3e","bytes":0,"stride":2}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown-surface-key", "GET", "/v1/surfaces/nope", "", http.StatusNotFound, CodeUnknownKey},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, c.method, c.path, c.body)
			if w.Code != c.wantCode {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, c.wantCode, w.Body.String())
			}
			if e := decodeErr(t, w.Body.Bytes()); e.Error.Code != c.wantErr {
				t.Fatalf("error code = %q, want %q", e.Error.Code, c.wantErr)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	if w := do(t, s, http.MethodGet, "/v1/bandwidth", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/bandwidth = %d, want 405", w.Code)
	}
}

func TestBatchPartialFailure(t *testing.T) {
	s := newServer(t, warmDir(t), 0)
	body := `{"queries":[
		{"machine":"t3e","pattern":"load","ws":"16k","stride":4},
		{"machine":"cm5","pattern":"load","ws":"4k","stride":1},
		{"machine":"t3e","pattern":"load","ws":"512M","stride":1}
	]}`
	code, b := post(t, s, "/v1/bandwidth/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Result == nil || resp.Results[0].Result.Confidence != "exact" {
		t.Fatalf("result[0] = %+v, want exact result", resp.Results[0])
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeUnknownMachine {
		t.Fatalf("result[1] = %+v, want unknown_machine error", resp.Results[1])
	}
	if resp.Results[2].Result == nil || resp.Results[2].Result.Confidence != "analytic" {
		t.Fatalf("result[2] = %+v, want analytic result", resp.Results[2])
	}
}

// TestBatchDeterministicAcrossWorkers pins the byte-stability
// contract: every batch against servers of width 2, 4, and 16 produces
// the bytes a width-1 server produces, and so does a second run on the
// same server. The batch sizes cover the empty batch, one element,
// each width minus one, the width and the width plus one, and the
// maxBatch limit; invalid elements are mixed in. Two batches posted at
// once to one width-2 server must each still match.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	dir := warmDir(t)
	element := func(i int) string {
		switch i % 9 {
		case 4:
			return `{"machine":"cm5","pattern":"load","ws":"4k","stride":1}`
		case 7:
			return `{"machine":"8400","pattern":"transfer","mode":"deposit","ws":"4k","stride":1}`
		case 8:
			return `{"machine":"t3d","pattern":"load","ws":"4k","stride":0}`
		}
		ws := []string{"4k", "16k", "64k", "1M"}[i%4]
		stride := []int{1, 2, 4, 8, 16, 32, 64, 128}[i%8]
		m := []string{"t3e", "t3d", "8400"}[i%3]
		pattern := `"pattern":"load"`
		if i%5 == 3 {
			pattern = `"pattern":"transfer","mode":"fetch"`
		}
		return `{"machine":"` + m + `",` + pattern + `,"ws":"` + ws + `","stride":` + itoa(stride) + `}`
	}
	batch := func(n int) string {
		queries := make([]string, n)
		for i := range queries {
			queries[i] = element(i)
		}
		return `{"queries":[` + strings.Join(queries, ",") + `]}`
	}
	widths := []int{2, 4, 16}
	sizes := []int{0, 1, 64, maxBatch}
	for _, w := range widths {
		sizes = append(sizes, w-1, w, w+1)
	}

	ref := newServer(t, dir, 1)
	want := make(map[int][]byte)
	for _, n := range sizes {
		code, b := post(t, ref, "/v1/bandwidth/batch", batch(n))
		if code != http.StatusOK {
			t.Fatalf("width 1, size %d: status %d", n, code)
		}
		want[n] = b
	}
	for _, workers := range widths {
		s := newServer(t, dir, workers)
		for run := 0; run < 2; run++ {
			for _, n := range sizes {
				code, b := post(t, s, "/v1/bandwidth/batch", batch(n))
				if code != http.StatusOK {
					t.Fatalf("workers=%d size %d: status %d", workers, n, code)
				}
				if !bytes.Equal(want[n], b) {
					t.Fatalf("workers=%d run=%d size %d: response bytes differ from width 1", workers, run, n)
				}
			}
		}
	}

	// Two batches at once on one width-2 server: one may hold a slot
	// while it waits for the other's, and both must finish and match.
	s := newServer(t, dir, 2)
	pair := []int{maxBatch, 64}
	got := make([][]byte, len(pair))
	var wg sync.WaitGroup
	for i, n := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/bandwidth/batch", strings.NewReader(batch(n)))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			got[i] = w.Body.Bytes()
		}()
	}
	wg.Wait()
	for i, n := range pair {
		if !bytes.Equal(want[n], got[i]) {
			t.Fatalf("concurrent batch of %d: response bytes differ from width 1", n)
		}
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestPlanSortedAndConfident(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	code, b := post(t, s, "/v1/plan", `{"machine":"t3d","bytes":"2M","stride":32}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp PlanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Strategies) == 0 {
		t.Fatal("no strategies")
	}
	if resp.Best != resp.Strategies[0].Name {
		t.Fatalf("best = %q, strategies[0] = %q", resp.Best, resp.Strategies[0].Name)
	}
	for i := 1; i < len(resp.Strategies); i++ {
		if resp.Strategies[i].TimeUS < resp.Strategies[i-1].TimeUS {
			t.Fatalf("strategies not sorted by time at %d", i)
		}
	}
	for _, st := range resp.Strategies {
		if st.Confidence != "analytic" {
			t.Fatalf("strategy %q confidence = %q, want analytic with an empty store", st.Name, st.Confidence)
		}
		if len(st.Steps) == 0 {
			t.Fatalf("strategy %q has no steps", st.Name)
		}
	}
}

func TestPlanDepositUnavailableOn8400(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	code, b := post(t, s, "/v1/plan", `{"machine":"8400","bytes":"1M","stride":16}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp PlanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	for _, st := range resp.Strategies {
		if strings.Contains(st.Name, "deposit") {
			t.Fatalf("8400 plan offers %q; deposits are unsupported there", st.Name)
		}
	}
}

func TestSurfacesEnumerationAndSlice(t *testing.T) {
	s := newServer(t, warmDir(t), 0)
	w := do(t, s, http.MethodGet, "/v1/surfaces", "")
	if w.Code != http.StatusOK {
		t.Fatalf("surfaces status %d", w.Code)
	}
	var list SurfacesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Surfaces) != 1 {
		t.Fatalf("got %d surfaces, want 1", len(list.Surfaces))
	}
	info := list.Surfaces[0]
	if info.Machine != "Cray T3E" || info.Kind != "surface" {
		t.Fatalf("unexpected surface info %+v", info)
	}
	if info.Cells != len(warmStrides)*len(warmWSS) || info.Simulated != info.Cells {
		t.Fatalf("cells = %d simulated = %d, want %d complete", info.Cells, info.Simulated, len(warmStrides)*len(warmWSS))
	}

	w = do(t, s, http.MethodGet, "/v1/surfaces/"+info.Key, "")
	if w.Code != http.StatusOK {
		t.Fatalf("slice status %d: %s", w.Code, w.Body.String())
	}
	var slice SurfaceSliceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &slice); err != nil {
		t.Fatal(err)
	}
	if len(slice.Grid) != len(warmWSS) || len(slice.Grid[0]) != len(warmStrides) {
		t.Fatalf("grid shape %dx%d, want %dx%d", len(slice.Grid), len(slice.Grid[0]), len(warmWSS), len(warmStrides))
	}
	for _, row := range slice.Sources {
		for _, src := range row {
			if src != "simulated" {
				t.Fatalf("source %q, want simulated", src)
			}
		}
	}
}

func TestMachinesEndpoint(t *testing.T) {
	s := newServer(t, warmDir(t), 0)
	w := do(t, s, http.MethodGet, "/v1/machines", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp MachinesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Machines) != 3 {
		t.Fatalf("got %d machines, want 3", len(resp.Machines))
	}
	for i, want := range []string{"8400", "t3d", "t3e"} {
		if resp.Machines[i].Name != want {
			t.Fatalf("machines[%d] = %q, want %q", i, resp.Machines[i].Name, want)
		}
	}
	var t3e MachineInfo
	for _, m := range resp.Machines {
		if m.Name == "t3e" {
			t3e = m
		}
	}
	if t3e.Artifacts != 1 {
		t.Fatalf("t3e artifacts = %d, want 1", t3e.Artifacts)
	}
	if len(t3e.Planner) == 0 {
		t.Fatal("t3e planner provenance empty")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	w := do(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Machines != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	post(t, s, "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":"4k","stride":1}`)
	post(t, s, "/v1/bandwidth/batch", `{"queries":[
		{"machine":"t3d","pattern":"load","ws":"4k","stride":1},
		{"machine":"t3d","pattern":"transfer","ws":"8M","stride":4},
		{"machine":"8400","pattern":"transfer","mode":"deposit","ws":"4k","stride":1}
	]}`)
	w = do(t, s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	out := w.Body.String()
	for _, want := range []string{
		"serve.bandwidth.requests 1",
		"serve.healthz.requests 1",
		"serve.bandwidth.latency_us ",
		"store.t3e.misses ",
		"store.catalog.mem_hits ",
		// Answers by confidence; the unsupported deposit is no answer.
		"serve.t3e.answers.exact 0\n",
		"serve.t3e.answers.interpolated 0\n",
		"serve.t3e.answers.analytic 1\n",
		"serve.t3d.answers.analytic 2\n",
		"serve.8400.answers.exact 0\n",
		"serve.8400.answers.analytic 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestSizeUnmarshal(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{`"8M"`, 8 << 20, true},
		{`"512kib"`, 512 << 10, true},
		{`1048576`, 1 << 20, true},
		{`0`, 0, true},
		{`-1`, 0, false},
		{`1.5`, 0, false},
		{`"8Q"`, 0, false},
		{`true`, 0, false},
	}
	for _, c := range cases {
		var s Size
		err := json.Unmarshal([]byte(c.in), &s)
		if c.ok != (err == nil) {
			t.Errorf("Size(%s): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && int64(s) != c.want {
			t.Errorf("Size(%s) = %d, want %d", c.in, int64(s), c.want)
		}
	}
}
