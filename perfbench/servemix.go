package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/units"
)

const (
	// serveRounds is how many rounds an untraced serve run makes. Each
	// round sets up from an empty store and serves one measured window,
	// so set-ups and windows both sample the whole run.
	serveRounds = 8
	// warmup is the unmeasured mix traffic sent before each window.
	warmup = 300 * time.Millisecond
	// minWindow is the shortest measured window of a round.
	minWindow = time.Second
	// serveClients is the number of closed-loop clients. With one,
	// a single query never queues behind the other client's batch, so
	// its latency is the service's own. On the 2-vCPU host the
	// benchmark was baselined on, one client's rate and median latency
	// over 4-second windows varied by 5-6% (coefficient of variation)
	// where two clients' varied by 8%.
	serveClients = 1
)

// served is one set-up: a fresh store filled by pruned sweeps and
// memserve listening on loopback over it.
type served struct {
	dir       string
	srv       *serve.Server
	hs        *http.Server
	done      chan error    // Serve's return value
	base      string        // http://127.0.0.1:port
	simulated int           // cells the pruned sweeps simulated
	cells     int           // grid cells the pruned sweeps covered
	sweep     time.Duration // host time of the pruned sweeps
	setup     time.Duration // set-up time, less the untimed collection
	built     []built
}

// built is one surface a set-up's pruned sweep built.
type built struct {
	spec      surfaceSpec
	s         *surface.Surface
	simulated int
}

// setUp fills a fresh store under out with pruned sweeps of the served
// grid (the `figures -fast` path) and starts memserve on it.
func setUp(out string, tr *tracer) (_ *served, err error) {
	start := time.Now()
	dir, err := os.MkdirTemp(out, "store-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	root := tr.begin("setup", 0, 0)
	defer tr.end(root)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	s := &served{dir: dir, done: make(chan error, 1)}
	specs := allSurfaces()
	pools := newPools(specs)
	for _, p := range pools {
		p.SetStore(st)
	}
	// Collect the machines' construction garbage outside the timing,
	// so the sweeps start from the same heap in every set-up and peak
	// memory does not depend on when the collector ran meanwhile.
	gc0 := time.Now()
	runtime.GC()
	gc := time.Since(gc0)
	strides, wss := servedGrid()
	t0 := time.Now()
	for _, sp := range specs {
		id := tr.begin("bench.surface_pruned", root, 0)
		surf, n, err := sp.requestPruned(pools[sp.machine], strides, wss)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.id, err)
		}
		s.built = append(s.built, built{spec: sp, s: surf, simulated: n})
		s.simulated += n
		s.cells += len(strides) * len(wss)
	}
	s.sweep = time.Since(t0)

	id := tr.begin("serve.new", root, 0)
	s.srv, err = serve.New(serve.Config{StoreDir: dir, Workers: poolWidth})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.setup = time.Since(start) - gc
	return s, nil
}

// checkSetup checks the surfaces a set-up built. Each set-up starts
// from an empty store, so every surface must have simulated cells, as
// many as its pruned sweep reported. Every simulated cell must be
// bit-identical to the reference and every analytic one to the
// closed-form model. The surface read back from the store directory,
// through a separate store instance, must equal the one built.
func checkSetup(s *served, ref reference, o *outcome) error {
	st, err := store.Open(s.dir, store.Options{})
	if err != nil {
		return err
	}
	fs := report.Factories()
	machines := make(map[string]machine.Machine)
	for _, b := range s.built {
		mc, ok := machines[b.spec.machine]
		if !ok {
			mc = fs[b.spec.machine]()
			machines[b.spec.machine] = mc
		}
		md := analytic.New(mc.Calibration())
		o.count(1, boolInt(b.simulated == 0 || b.s.CountSource(surface.Simulated) != b.simulated))
		for wi, ws := range b.s.WorkingSets {
			for si, stride := range b.s.Strides {
				var ok bool
				if b.s.SourceAt(wi, si) == surface.Simulated {
					want, found := ref[cellKey{b.spec.id, ws, stride}]
					ok = found && sameBits(want.bw, b.s.BW[wi][si])
				} else {
					want, err := b.spec.modelBW(md, ws, stride)
					ok = err == nil && sameBits(want, b.s.BW[wi][si])
				}
				o.count(1, boolInt(!ok))
			}
		}
		got, found := st.GetSurface(b.spec.storeKey(mc, b.s.Strides, b.s.WorkingSets))
		o.count(1, boolInt(!found || !sameSurface(got, b.s)))
	}
	return nil
}

// close stops the server, waits for it to exit and removes the store.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// prepared is one distinct request of the mix, encoded once.
type prepared struct {
	path string
	body []byte
	// want is the verified response body; nil until verified, and
	// left nil when verification failed, so every later use fails.
	want []byte
	// conf counts the answers of each confidence tier (exact,
	// interpolated, analytic) the response carries.
	conf [3]int64
}

// requests is the mix's distinct requests by operation kind.
type requests [numOps][]prepared

func encodeRequests(m mix) (requests, error) {
	var rs requests
	enc := func(kind int, path string, v any) error {
		b, err := json.Marshal(v)
		rs[kind] = append(rs[kind], prepared{path: path, body: b})
		return err
	}
	for _, q := range m.singles {
		if err := enc(opSingle, "/v1/bandwidth", q); err != nil {
			return rs, err
		}
	}
	for _, b := range m.batches {
		req := serve.BatchRequest{Queries: make([]serve.BandwidthRequest, len(b))}
		for j, i := range b {
			req.Queries[j] = m.singles[i]
		}
		if err := enc(opBatch, "/v1/bandwidth/batch", req); err != nil {
			return rs, err
		}
	}
	for _, p := range m.plans {
		if err := enc(opPlan, "/v1/plan", p); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

// client is one closed-loop client holding one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx response. A
// refused connection, a transport error or another status is an
// error.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return b, nil
}

// sample is one correctly answered request of a window. A window holds
// hundreds of thousands of them, so they are kept small: their memory
// counts in the run's peak memory. Times are in ms, end from the
// window's start.
type sample struct {
	end, lat float32
	kind     int8
}

func newSample(kind int, end, lat time.Duration) sample {
	return sample{end: float32(ms(end)), lat: float32(ms(lat)), kind: int8(kind)}
}

// tally is one client's share of a window.
type tally struct {
	attempted, failed int64
	samples           []sample
	conf              [3]int64
}

// send issues one prepared request and scores it: it fails unless the
// server answered 2xx with exactly the verified bytes.
func (t *tally) send(c *client, kind int, q *prepared, start time.Time) {
	t0 := time.Now()
	body, err := c.do(http.MethodPost, q.path, q.body)
	d := time.Since(t0)
	t.attempted++
	if err != nil || q.want == nil || !bytes.Equal(body, q.want) {
		t.failed++
		return
	}
	t.samples = append(t.samples, newSample(kind, time.Since(start), d))
	for i, n := range q.conf {
		t.conf[i] += n
	}
}

// latencies returns the window's latencies of one kind in ms.
func (t *tally) latencies(kind int) []float64 {
	n := 0
	for _, s := range t.samples {
		if int(s.kind) == kind {
			n++
		}
	}
	out := make([]float64, 0, n)
	for _, s := range t.samples {
		if int(s.kind) == kind {
			out = append(out, float64(s.lat))
		}
	}
	return out
}

// latencies32 returns the window's latencies of one kind in ms, in a
// slice sized exactly.
func (t *tally) latencies32(kind int) []float32 {
	lat := t.latencies(kind)
	out := make([]float32, len(lat))
	for i, v := range lat {
		out[i] = float32(v)
	}
	return out
}

// widen joins float32 latency lists into one float64 list.
func widen(ls [][]float32) []float64 {
	n := 0
	for _, l := range ls {
		n += len(l)
	}
	out := make([]float64, 0, n)
	for _, l := range ls {
		for _, v := range l {
			out = append(out, float64(v))
		}
	}
	return out
}

// merge returns the tallies merged into one. Its samples are sized
// exactly, so the samples a run keeps do not grow its peak memory by
// a slice's spare capacity.
func merge(ts []tally) tally {
	n := 0
	for _, t := range ts {
		n += len(t.samples)
	}
	all := tally{samples: make([]sample, 0, n)}
	for _, t := range ts {
		all.attempted += t.attempted
		all.failed += t.failed
		all.samples = append(all.samples, t.samples...)
		for i := range all.conf {
			all.conf[i] += t.conf[i]
		}
	}
	return all
}

// window runs serveClients closed-loop clients over the mix for d and
// returns their merged tally and the window's wall time. Each client
// draws its operations from its own seeded stream, distinct for every
// window number of a run. With a tracer, every request gets a span
// under one window span.
func window(base string, rs *requests, m *mix, seed int64, num int, d time.Duration, tr *tracer, name string) (tally, time.Duration) {
	win := tr.begin(name, 0, 0)
	tallies := make([]tally, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			r := newRNG(seed, streamClient+uint64(num*serveClients+k))
			t := &tallies[k]
			for n := int64(1); time.Since(start) < d; n++ {
				kind, idx := m.nextOp(r)
				id := tr.begin("client."+opNames[kind], win, int64(k+1)<<32|n)
				t.send(c, kind, &rs[kind][idx], start)
				tr.end(id)
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	tr.end(win)
	return merge(tallies), wall
}

// sliceLen is the length of the slices the traced run's untraced
// window is cut into. Each slice yields its own rate and latency
// percentiles, and the run reports the tails as medians over slices,
// so a disturbance shorter than half the window does not move them. A
// slice holds more than a thousand batches, so the batch tail is p99.
const sliceLen = 5 * time.Second

// sliceStats is one slice's figures.
type sliceStats struct {
	rate                float64 // correct answers per second
	p50, p99, batchTail float64 // ms
	singlePct, batchPct float64 // the percentiles the tails are at
	singles, batches    int
}

// slices cuts a window of length d into whole slices by request
// completion time; a window shorter than one slice is one slice.
// Requests completing after the last whole slice are not counted.
func slices(t tally, d time.Duration) []sliceStats {
	short := d < sliceLen
	n, l := int(d/sliceLen), sliceLen
	if short {
		n, l = 1, d
	}
	lat := make([][numOps][]float64, n)
	for _, s := range t.samples {
		i := int(float64(s.end) / ms(l))
		if i >= n {
			if !short {
				continue
			}
			i = n - 1
		}
		lat[i][s.kind] = append(lat[i][s.kind], float64(s.lat))
	}
	out := make([]sliceStats, n)
	for i := range out {
		st := &out[i]
		total := 0
		for k := range lat[i] {
			total += len(lat[i][k])
		}
		st.rate = float64(total) / l.Seconds()
		st.singles, st.batches = len(lat[i][opSingle]), len(lat[i][opBatch])
		st.p50 = median(lat[i][opSingle])
		st.singlePct, st.p99 = tail(lat[i][opSingle])
		st.batchPct, st.batchTail = tail(lat[i][opBatch])
	}
	return out
}

// medianOf returns the median over slices of one figure.
func medianOf(ss []sliceStats, f func(sliceStats) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// oracle answers bandwidth queries in process from the served store
// directory, through its own store instance.
type oracle struct {
	st   *store.Store
	cals map[string]machine.Calibration
}

func newOracle(dir string) (*oracle, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	o := &oracle{st: st, cals: make(map[string]machine.Calibration)}
	for k, f := range report.Factories() {
		o.cals[k] = f().Calibration()
	}
	return o, nil
}

// queryArgs translates a request into Lookup's arguments.
func queryArgs(q serve.BandwidthRequest) (store.Pattern, machine.Mode) {
	if q.Pattern == "load" {
		return store.PatternLoad, machine.Fetch
	}
	if q.Mode == "deposit" {
		return store.PatternTransfer, machine.Deposit
	}
	return store.PatternTransfer, machine.Fetch
}

// lookup is the in-process answer the service must match.
func (o *oracle) lookup(q serve.BandwidthRequest) (store.Result, error) {
	p, mode := queryArgs(q)
	return o.st.Lookup(o.cals[q.Machine], p, mode, units.Bytes(q.WS), q.Stride)
}

// matches reports whether a served answer equals the oracle's.
func (o *oracle) matches(q serve.BandwidthRequest, got serve.BandwidthResponse) (store.Confidence, bool) {
	res, err := o.lookup(q)
	if err != nil {
		return 0, false
	}
	ok := got.Machine == q.Machine && got.Pattern == q.Pattern &&
		got.WSBytes == int64(q.WS) && got.Stride == q.Stride &&
		got.BWMBps == res.BW.MBps() && got.Confidence == res.Confidence.String()
	return res.Confidence, ok
}

// verify sends every distinct request once and checks the answers:
// singles against the oracle, every batch element against its single
// answer, plans for a well-formed fastest-first strategy list. A
// verified request keeps its response bytes as the expected answer of
// every later use on the same set-up; verification first forgets the
// answers of an earlier set-up.
func verify(c *client, m *mix, rs *requests, or *oracle, o *outcome) {
	for k := range rs {
		for i := range rs[k] {
			rs[k][i].want, rs[k][i].conf = nil, [3]int64{}
		}
	}
	singles := make([]*serve.BandwidthResponse, len(m.singles))
	for i, q := range m.singles {
		p := &rs[opSingle][i]
		body, err := c.do(http.MethodPost, p.path, p.body)
		var got serve.BandwidthResponse
		ok := err == nil && json.Unmarshal(body, &got) == nil
		var conf store.Confidence
		if ok {
			conf, ok = or.matches(q, got)
		}
		o.count(1, boolInt(!ok))
		if ok {
			p.want, singles[i] = body, &got
			p.conf[conf]++
		}
	}
	for i, b := range m.batches {
		p := &rs[opBatch][i]
		body, err := c.do(http.MethodPost, p.path, p.body)
		var got serve.BatchResponse
		ok := err == nil && json.Unmarshal(body, &got) == nil && len(got.Results) == len(b)
		for j := 0; ok && j < len(b); j++ {
			r, want := got.Results[j], singles[b[j]]
			ok = r.Error == nil && r.Result != nil && want != nil && *r.Result == *want
		}
		o.count(1, boolInt(!ok))
		if ok {
			p.want = body
			for _, j := range b {
				for t, n := range rs[opSingle][j].conf {
					p.conf[t] += n
				}
			}
		}
	}
	for i, q := range m.plans {
		p := &rs[opPlan][i]
		body, err := c.do(http.MethodPost, p.path, p.body)
		var got serve.PlanResponse
		ok := err == nil && json.Unmarshal(body, &got) == nil &&
			got.Machine == q.Machine && got.Bytes == int64(q.Bytes) && got.Stride == q.Stride &&
			len(got.Strategies) > 0 && got.Best == got.Strategies[0].Name
		for j := 1; ok && j < len(got.Strategies); j++ {
			ok = got.Strategies[j-1].TimeUS <= got.Strategies[j].TimeUS
		}
		o.count(1, boolInt(!ok))
		if ok {
			p.want = body
		}
	}
}

// headlineRequest is the bandwidth query for one headline cell.
func headlineRequest(h headline) serve.BandwidthRequest {
	mode, key, _ := strings.Cut(h.surf, "/")
	q := serve.BandwidthRequest{Machine: key, Pattern: "transfer", Mode: mode, WS: serve.Size(h.ws), Stride: h.stride}
	if mode == "load" {
		q.Pattern, q.Mode = "load", ""
	}
	return q
}

// servePaperDev asks the service for every headline cell, checks each
// answer against the oracle and returns paper_dev_pct of the answers.
func servePaperDev(c *client, or *oracle, o *outcome) float64 {
	var paper, got []float64
	for _, h := range headlines {
		q := headlineRequest(h)
		b, err := json.Marshal(q)
		if err != nil {
			o.count(1, 1)
			continue
		}
		body, err := c.do(http.MethodPost, "/v1/bandwidth", b)
		var r serve.BandwidthResponse
		ok := err == nil && json.Unmarshal(body, &r) == nil
		if ok {
			_, ok = or.matches(q, r)
		}
		o.count(1, boolInt(!ok))
		if ok {
			paper = append(paper, h.paperMBps)
			got = append(got, r.BWMBps)
		}
	}
	if len(paper) == 0 {
		return 0
	}
	return paperDevPct(paper, got)
}

// runServe runs the serve_mix workload. An untraced run makes
// serveRounds rounds. Each round spends its share of the measured time
// setting up from an empty store, then serves a measured window for
// the rest of the share. Every set-up is checked, and every set-up
// serves.
func runServe(cfg config) (*outcome, error) {
	m := newMix(cfg.seed)
	rs, err := encodeRequests(m)
	if err != nil {
		return nil, err
	}
	ref, err := parseReference(referenceText)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return tracedServe(cfg, ref, &m, &rs)
	}
	o := newOutcome()
	var setups []float64
	// A run keeps only each window's counts and single-query
	// latencies, so its peak memory does not grow with the number of
	// requests its windows answered.
	var counts tally
	var singles [][]float32
	var wall, sweep time.Duration
	simulated, answered := 0, 0
	for i := 0; i < serveRounds; i++ {
		s, err := setUp(cfg.out, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		simulated += s.simulated
		sweep += s.sweep
		d := max(cfg.seconds/serveRounds-s.setup, minWindow)
		t, w, err := serveRound(cfg, s, ref, &m, &rs, o, i, d)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "  round %d: set-up %.3fs, %.1f cells/s; %d requests in %.3fs, %.0f req/s\n",
			i, s.setup.Seconds(), float64(s.simulated)/s.sweep.Seconds(), t.attempted, w.Seconds(), float64(len(t.samples))/w.Seconds())
		counts.attempted += t.attempted
		counts.failed += t.failed
		for k := range counts.conf {
			counts.conf[k] += t.conf[k]
		}
		answered += len(t.samples)
		singles = append(singles, t.latencies32(opSingle))
		wall += w
		// Collect a closed round's garbage and return its memory to
		// the system outside the timing, so every set-up starts from
		// the same heap and resident memory, and peak memory does not
		// depend on when the collector happens to run.
		debug.FreeOSMemory()
	}
	o.values["setup_s"] = median(setups)
	o.values["cells_per_s"] = float64(simulated) / sweep.Seconds()
	o.values["requests_per_s"] = float64(answered) / wall.Seconds()
	o.values["p50_ms"] = median(widen(singles))
	o.values["max_rss_mb"] = maxRSSMB()
	c := counts.conf
	fmt.Fprintf(cfg.log, "serve_mix seed %d: %d requests in %.3fs over %d windows\n", cfg.seed, counts.attempted, wall.Seconds(), serveRounds)
	fmt.Fprintf(cfg.log, "answers exact/interpolated/analytic %d/%d/%d (analytic share %.4f)\n",
		c[0], c[1], c[2], float64(c[2])/float64(max(c[0]+c[1]+c[2], 1)))
	return o, nil
}

// serveRound checks round i's set-up, prepares it and measures one
// window of d on it. It returns the window's tally and wall time.
func serveRound(cfg config, s *served, ref reference, m *mix, rs *requests, o *outcome, i int, d time.Duration) (tally, time.Duration, error) {
	// Collect the set-up's pools and return their memory to the
	// system before the check builds its own machines, so peak memory
	// does not depend on when the collector happens to run.
	debug.FreeOSMemory()
	if err := checkSetup(s, ref, o); err != nil {
		return tally{}, 0, err
	}
	if _, err := prepare(cfg, s, m, rs, o, 2*i); err != nil {
		return tally{}, 0, err
	}
	// Start measuring from a collected heap, so the window's peak
	// memory does not depend on when set-up garbage is collected.
	runtime.GC()
	t, wall := window(s.base, rs, m, cfg.seed, 2*i+1, d, nil, "measure")
	o.count(t.attempted, t.failed)
	return t, wall, nil
}

// prepare verifies the distinct requests, measures paper_dev_pct and
// sends warm-up traffic as window number num; none of it is measured.
func prepare(cfg config, s *served, m *mix, rs *requests, o *outcome, num int) (*oracle, error) {
	or, err := newOracle(s.dir)
	if err != nil {
		return nil, err
	}
	c := newClient(s.base)
	defer c.close()
	verify(c, m, rs, or, o)
	o.values["paper_dev_pct"] = servePaperDev(c, or, o)
	t, _ := window(s.base, rs, m, cfg.seed, num, warmup, nil, "warmup")
	o.count(t.attempted, t.failed)
	return or, nil
}

// tracedServe is the per-layer run of serve_mix: one traced set-up,
// then an untraced and a traced window of half the measured time each,
// then in-process replays of the mix through each layer the service
// stacks: the handler without a socket, Store.Lookup, the analytic
// model, and store writes and reads of the set-up's surfaces.
func tracedServe(cfg config, ref reference, m *mix, rs *requests) (*outcome, error) {
	tr := newTracer()
	s, err := setUp(cfg.out, tr)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	err = checkSetup(s, ref, o)
	if err == nil {
		err = tracedServeRun(cfg, s, m, rs, tr, o)
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o.spans = tr.snapshot()
	return o, nil
}

func tracedServeRun(cfg config, s *served, m *mix, rs *requests, tr *tracer, o *outcome) error {
	or, err := prepare(cfg, s, m, rs, o, 0)
	if err != nil {
		return err
	}
	plain, plainWall := window(s.base, rs, m, cfg.seed, 1, cfg.seconds/2, nil, "untraced")
	o.count(plain.attempted, plain.failed)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced, tracedWall := window(s.base, rs, m, cfg.seed, 2, cfg.seconds/2, tr, "traced")
	runtime.ReadMemStats(&m1)
	o.count(traced.attempted, traced.failed)

	ss := slices(plain, cfg.seconds/2)
	for i, st := range ss {
		fmt.Fprintf(cfg.log, "  slice %d: %.0f req/s; singles n=%d p50 %.4fms tail p%g %.4fms; batches n=%d tail p%g %.4fms\n",
			i, st.rate, st.singles, st.p50, st.singlePct, st.p99, st.batches, st.batchPct, st.batchTail)
	}
	o.values["serve.p99_ms"] = medianOf(ss, func(s sliceStats) float64 { return s.p99 })
	o.values["serve.batch_p99_ms"] = medianOf(ss, func(s sliceStats) float64 { return s.batchTail })
	plainRate := float64(plain.attempted) / plainWall.Seconds()
	tracedRate := float64(traced.attempted) / tracedWall.Seconds()
	o.values["trace.overhead_frac"] = plainRate/tracedRate - 1
	o.values["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(max(traced.attempted, 1))
	o.values["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	var conf [3]int64
	for i := range conf {
		conf[i] = plain.conf[i] + traced.conf[i]
	}
	o.values["serve.confidence.exact"] = float64(conf[0])
	o.values["serve.confidence.interpolated"] = float64(conf[1])
	o.values["serve.confidence.analytic"] = float64(conf[2])
	o.values["serve.analytic_share"] = float64(conf[2]) / float64(max(conf[0]+conf[1]+conf[2], 1))
	o.values["analytic.simulated_frac"] = float64(s.simulated) / float64(s.cells)

	c := newClient(s.base)
	hit, err := hitRate(c)
	c.close()
	o.count(1, boolInt(err != nil))
	o.values["store.hit_rate"] = hit

	handler := replayHandler(s.srv.Handler(), rs, tr, o)
	for k, name := range opNames {
		o.values["serve.handler_us."+name] = handler[k]
	}
	o.values["serve.transport_us"] = 1000*median(plain.latencies(opSingle)) - handler[opSingle]
	for conf, v := range replayLookup(m, or, tr, o) {
		o.values["store.lookup_us."+store.Confidence(conf).String()] = v
	}
	o.values["analytic.model_us"] = replayModel(m, or, tr)
	put, get, err := replayStore(cfg.out, or, tr)
	o.count(1, boolInt(err != nil))
	o.values["store.put_ms"], o.values["store.get_us"] = put, get
	fmt.Fprintf(cfg.log, "serve_mix seed %d traced: untraced %.0f req/s, traced %.0f req/s\n", cfg.seed, plainRate, tracedRate)
	return nil
}

// hitRate reads the service's store counters from /metrics: hits over
// lookups, summed over every shard store and the catalog.
func hitRate(c *client) (float64, error) {
	body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	var hits, misses int64
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "store.") {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/metrics: %q: %w", sc.Text(), err)
		}
		switch {
		case strings.HasSuffix(name, ".mem_hits"), strings.HasSuffix(name, ".disk_hits"):
			hits += n
		case strings.HasSuffix(name, ".misses"):
			misses += n
		}
	}
	if hits+misses == 0 {
		return 0, nil
	}
	return float64(hits) / float64(hits+misses), nil
}

// replayHandler sends every distinct request straight to the handler
// through a ResponseRecorder (no socket), checks the bytes against the
// verified answer, and returns the median handler time per kind in µs.
func replayHandler(h http.Handler, rs *requests, tr *tracer, o *outcome) [numOps]float64 {
	var out [numOps]float64
	for k := range rs {
		var lat []float64
		for i := range rs[k] {
			p := &rs[k][i]
			req := httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(p.body))
			rec := httptest.NewRecorder()
			id := tr.begin("serve.handler."+opNames[k], 0, 0)
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			d := time.Since(t0)
			tr.end(id)
			ok := rec.Code/100 == 2 && p.want != nil && bytes.Equal(rec.Body.Bytes(), p.want)
			o.count(1, boolInt(!ok))
			lat = append(lat, us(d))
		}
		out[k] = median(lat)
	}
	return out
}

// replayLookup times one Store.Lookup per distinct single query and
// returns the median µs per confidence tier of the answer.
func replayLookup(m *mix, or *oracle, tr *tracer, o *outcome) [3]float64 {
	var lat [3][]float64
	for _, q := range m.singles {
		id := tr.begin("store.lookup", 0, 0)
		t0 := time.Now()
		res, err := or.lookup(q)
		d := time.Since(t0)
		tr.end(id)
		o.count(1, boolInt(err != nil))
		if err == nil {
			lat[res.Confidence] = append(lat[res.Confidence], us(d))
		}
	}
	var out [3]float64
	for i := range lat {
		out[i] = median(lat[i])
	}
	return out
}

// replayModel times the closed-form model over every distinct single
// query and returns the mean µs per LoadBW/TransferBW call.
func replayModel(m *mix, or *oracle, tr *tracer) float64 {
	models := make(map[string]*analytic.Model)
	for k, cal := range or.cals {
		models[k] = analytic.New(cal)
	}
	id := tr.begin("analytic.model", 0, 0)
	t0 := time.Now()
	for _, q := range m.singles {
		md := models[q.Machine]
		if q.Pattern == "load" {
			_ = md.LoadBW(units.Bytes(q.WS), q.Stride)
			continue
		}
		_, mode := queryArgs(q)
		// A mode the model cannot express is timed like any other call.
		_, _ = md.TransferBW(mode, units.Bytes(q.WS), q.Stride)
	}
	d := time.Since(t0)
	tr.end(id)
	return us(d) / float64(len(m.singles))
}

// replayStore writes the set-up's eight surfaces into a fresh store and
// reads them back through a newly opened one (from disk). It returns
// the median PutSurface ms and GetSurface µs.
func replayStore(out string, or *oracle, tr *tracer) (putMS, getUS float64, err error) {
	dir, err := os.MkdirTemp(out, "replay-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	strides, wss := servedGrid()
	var keys []store.Key
	var puts, gets []float64
	fs := report.Factories()
	for _, sp := range allSurfaces() {
		key := sp.storeKey(fs[sp.machine](), strides, wss)
		s, ok := or.st.GetSurface(key)
		if !ok {
			return 0, 0, fmt.Errorf("%s: set-up surface missing from the store", sp.id)
		}
		id := tr.begin("store.put", 0, 0)
		t0 := time.Now()
		err := w.PutSurface(key, s)
		puts = append(puts, ms(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		keys = append(keys, key)
	}
	r, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	for _, k := range keys {
		id := tr.begin("store.get", 0, 0)
		t0 := time.Now()
		_, ok := r.GetSurface(k)
		gets = append(gets, us(time.Since(t0)))
		tr.end(id)
		if !ok {
			return 0, 0, errors.New("store read back a surface it just wrote as missing")
		}
	}
	return median(puts), median(gets), nil
}
