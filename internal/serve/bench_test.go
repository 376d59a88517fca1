package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/units"
)

// Load-test harness: a live loopback server (httptest wraps a real
// net/http server on 127.0.0.1) driven by concurrent clients at
// parallelism 1, 4, and 16. Queries run against an empty store, so
// every answer takes the analytic path — the steady-state shape of a
// compiler fleet hammering a warm service. Each benchmark reports
// qps (queries answered per second; for batches, elements count
// individually), and the single-query benchmarks report p99_us
// (99th-percentile end-to-end request latency). scripts/bench.sh
// records serve.qps, serve.batch_qps, and serve.p99_us from these.

// benchBatchSize is the batch fan-out width the batch benchmarks use.
const benchBatchSize = 64

func newBenchServer(b *testing.B) *httptest.Server {
	b.Helper()
	s, err := New(Config{StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

// fire posts one body and drains the response.
func fire(b *testing.B, client *http.Client, url string, body []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// singleBody varies the query per operation so the store path is
// exercised across machines and strides, not one memoized cell.
func singleBody(i int) []byte {
	machines := []string{"t3e", "t3d", "8400"}
	strides := []int{1, 2, 4, 8, 16, 32, 64, 128}
	wss := []string{"4k", "32k", "256k", "2M", "8M"}
	return []byte(fmt.Sprintf(`{"machine":%q,"pattern":"load","ws":%q,"stride":%d}`,
		machines[i%3], wss[i%5], strides[i%8]))
}

func batchBody(n int) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(singleBody(i))
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}

// latencyRecorder collects per-request latencies across goroutines.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (l *latencyRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// p99us returns the 99th-percentile sample in microseconds.
func (l *latencyRecorder) p99us() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	idx := len(l.samples) * 99 / 100
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return float64(l.samples[idx]) / float64(time.Microsecond)
}

func BenchmarkServeSingle(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			ts := newBenchServer(b)
			url := ts.URL + "/v1/bandwidth"
			lat := &latencyRecorder{}
			var seq int64
			var seqMu sync.Mutex
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := &http.Client{}
				for pb.Next() {
					seqMu.Lock()
					i := int(seq)
					seq++
					seqMu.Unlock()
					start := time.Now()
					fire(b, client, url, singleBody(i))
					lat.add(time.Since(start))
				}
			})
			b.StopTimer()
			qps := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "qps")
			b.ReportMetric(lat.p99us(), "p99_us")
			b.ReportMetric(0, "ns/op")
		})
	}
}

func BenchmarkServeBatch(b *testing.B) {
	body := batchBody(benchBatchSize)
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			ts := newBenchServer(b)
			url := ts.URL + "/v1/bandwidth/batch"
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := &http.Client{}
				for pb.Next() {
					fire(b, client, url, body)
				}
			})
			b.StopTimer()
			batches := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(batches, "batch_qps")
			b.ReportMetric(batches*benchBatchSize, "qps")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// handlerStore fills a store directory with, for each machine, a load
// surface and a fetch transfer surface on a coarse grid, every cell
// simulated and valued by the analytic model, so the handler
// benchmark reaches the exact, interpolated and analytic lookup paths.
func handlerStore(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	strides := []int{1, 2, 4, 8, 16, 32, 64, 128}
	wss := []units.Bytes{4 * units.KB, 32 * units.KB, 256 * units.KB, 2 * units.MB, 8 * units.MB}
	for _, name := range shardNames() {
		cal := report.Factories()[name]().Calibration()
		model := analytic.New(cal)
		for _, pattern := range []string{store.PatternLoad.With("", 0), store.PatternTransfer.With(machine.Fetch.String(), 0, 1)} {
			s := surface.New(cal.Machine, "bench", strides, wss)
			s.CalHash = cal.Hash()
			for wi, ws := range wss {
				for si, stride := range strides {
					bw := model.LoadBW(ws, stride)
					if pattern != store.PatternLoad.With("", 0) {
						if bw, err = model.TransferBW(machine.Fetch, ws, stride); err != nil {
							b.Fatal(err)
						}
					}
					s.Set(wi, si, bw)
				}
			}
			if err := st.PutSurface(store.NewKey(cal, pattern, strides, wss), s); err != nil {
				b.Fatal(err)
			}
		}
	}
	return dir
}

// handlerQuery is the body of the i-th query the handler benchmark
// sends, shaped as clients marshal a BandwidthRequest: on the stored
// grid, between its lines, or off it, for loads and fetches.
func handlerQuery(i int) string {
	machines := []string{"t3e", "t3d", "8400"}
	strides := []int{1, 2, 3, 4, 8, 16, 48, 64, 128, 256}
	wss := []int64{4 << 10, 24 << 10, 32 << 10, 256 << 10, 1 << 20, 2 << 20, 8 << 20, 64 << 20}
	if i%2 == 1 {
		return fmt.Sprintf(`{"machine":%q,"pattern":"transfer","mode":"fetch","ws":%d,"stride":%d}`,
			machines[i%3], wss[i%8], strides[i%10])
	}
	return fmt.Sprintf(`{"machine":%q,"pattern":"load","ws":%d,"stride":%d}`,
		machines[i%3], wss[i%8], strides[i%10])
}

// BenchmarkHandler replays fixed single, batch-of-64 and plan bodies
// through the server's handler with a ResponseRecorder, no socket,
// against a store holding a few surfaces. It measures the handler
// itself: decoding, lookups and encoding. The loopback benchmarks
// above measure the transport as well.
//
// Run it with: go test -run '^$' -bench 'BenchmarkHandler' -benchmem ./internal/serve
func BenchmarkHandler(b *testing.B) {
	s, err := New(Config{StoreDir: handlerStore(b)})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	queries := make([]string, benchBatchSize)
	for i := range queries {
		queries[i] = handlerQuery(i)
	}
	batch := `{"queries":[` + queries[0]
	for _, q := range queries[1:] {
		batch += "," + q
	}
	batch += "]}"
	for _, c := range []struct{ name, path, body string }{
		{"single", "/v1/bandwidth", handlerQuery(7)},
		{"batch64", "/v1/bandwidth/batch", batch},
		{"plan", "/v1/plan", `{"machine":"t3d","bytes":2097152,"stride":32}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader([]byte(c.body)))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}
