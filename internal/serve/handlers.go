package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/units"
)

const (
	// maxBodyBytes bounds request bodies; the largest legitimate
	// payload is a maxBatch-element batch, well under this.
	maxBodyBytes = 1 << 20
	// maxBatch bounds one batch request.
	maxBatch = 4096
	// maxWS bounds a query's working set (1 TB — far beyond any
	// modelled memory, cheap to answer analytically).
	maxWS = units.Bytes(1) << 40
	// maxStride bounds a query's stride in words.
	maxStride = 1 << 20
)

// instrument wraps a handler with the per-endpoint counters /metrics
// reports: requests, errors (4xx/5xx responses), and cumulative
// handler latency in host microseconds. The three names are built
// once per route, not per request.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request) int) http.Handler {
	requests := "serve." + name + ".requests"
	errs := "serve." + name + ".errors"
	latency := "serve." + name + ".latency_us"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		//simlint:ignore determinism host-side serving latency, decoupled from simulated time
		start := time.Now()
		status := h(w, r)
		s.metrics.Inc(requests)
		if status >= 400 {
			s.metrics.Inc(errs)
		}
		s.metrics.Add(latency, time.Since(start).Microseconds())
	})
}

// hex16 renders a calibration hash the way every response spells it.
func hex16(v uint64) string { return fmt.Sprintf("%016x", v) }

// answer evaluates one bandwidth query into resp. On failure the
// ErrorDetail and an HTTP status classify it and resp is left unset;
// on success the detail is nil.
func (s *Server) answer(q *BandwidthRequest, resp *BandwidthResponse) (*ErrorDetail, int) {
	fail := func(status int, code, format string, args ...any) (*ErrorDetail, int) {
		return &ErrorDetail{Code: code, Message: fmt.Sprintf(format, args...)}, status
	}
	sh, ok := s.shards[q.Machine]
	if !ok {
		return fail(http.StatusNotFound, CodeUnknownMachine, "unknown machine %q (have %v)", q.Machine, s.names)
	}
	var pattern store.Pattern
	switch q.Pattern {
	case "load":
		pattern = store.PatternLoad
	case "transfer":
		pattern = store.PatternTransfer
	default:
		return fail(http.StatusBadRequest, CodeBadRequest, "pattern must be \"load\" or \"transfer\", got %q", q.Pattern)
	}
	var mode machine.Mode
	switch q.Mode {
	case "", "fetch":
		mode = machine.Fetch
	case "deposit":
		mode = machine.Deposit
	case "naive-fetch":
		mode = machine.NaiveFetch
	default:
		return fail(http.StatusBadRequest, CodeBadRequest, "mode must be \"fetch\", \"deposit\", or \"naive-fetch\", got %q", q.Mode)
	}
	ws := units.Bytes(q.WS)
	if ws <= 0 || ws > maxWS {
		return fail(http.StatusBadRequest, CodeBadRequest, "ws must be in (0, %d], got %d", int64(maxWS), int64(ws))
	}
	if q.Stride < 1 || q.Stride > maxStride {
		return fail(http.StatusBadRequest, CodeBadRequest, "stride must be in [1, %d], got %d", maxStride, q.Stride)
	}
	res, err := sh.lookup(pattern, mode, ws, q.Stride)
	if err != nil {
		// The only lookup errors are transfer modes the machine does
		// not implement (deposit on the 8400, naive-fetch beyond the
		// T3D) — out-of-hull queries degrade to analytic, never here.
		return fail(http.StatusUnprocessableEntity, CodeUnsupported, "%v", err)
	}
	*resp = BandwidthResponse{
		Machine: q.Machine, Pattern: q.Pattern,
		WSBytes: int64(ws), Stride: q.Stride,
		BWMBps:     res.BW.MBps(),
		Confidence: res.Confidence.String(),
		CalHash:    sh.hashHex,
	}
	if pattern == store.PatternTransfer {
		resp.Mode = mode.String()
	}
	return nil, http.StatusOK
}

func (s *Server) handleBandwidth(w http.ResponseWriter, r *http.Request) int {
	var q BandwidthRequest
	if err := decode(w, r, &q, (*scanner).bandwidth); err != nil {
		return writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request body: %v", err)
	}
	var resp BandwidthResponse
	if detail, status := s.answer(&q, &resp); detail != nil {
		return writeErrorDetail(w, status, detail)
	}
	return write(w, http.StatusOK, func(e *encoder) { e.bandwidth(&resp) })
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req BatchRequest
	if err := decode(w, r, &req, (*scanner).batch); err != nil {
		return writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request body: %v", err)
	}
	if len(req.Queries) > maxBatch {
		return writeError(w, http.StatusBadRequest, CodeBadRequest, "batch of %d exceeds limit %d", len(req.Queries), maxBatch)
	}
	// A fixed fan-out: at most Workers goroutines, each holding one
	// semaphore slot for its whole life and taking query indices from
	// a shared counter. Started workers drain the whole batch, so a
	// handler blocked on the semaphore does not stall its own batch.
	// Answers land by index, so the bytes do not depend on the width.
	n := len(req.Queries)
	results := make([]BatchResult, n)
	answers := make([]BandwidthResponse, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(cap(s.sem), n) {
		wg.Add(1)
		s.sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-s.sem }()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if detail, _ := s.answer(&req.Queries[i], &answers[i]); detail != nil {
					results[i].Error = detail
				} else {
					results[i].Result = &answers[i]
				}
			}
		}()
	}
	wg.Wait()
	return write(w, http.StatusOK, func(e *encoder) { e.batch(&BatchResponse{Results: results}) })
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) int {
	var req PlanRequest
	if err := decode(w, r, &req, (*scanner).plan); err != nil {
		return writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request body: %v", err)
	}
	sh, ok := s.shards[req.Machine]
	if !ok {
		return writeError(w, http.StatusNotFound, CodeUnknownMachine, "unknown machine %q (have %v)", req.Machine, s.names)
	}
	n := units.Bytes(req.Bytes)
	if n <= 0 || n > maxWS {
		return writeError(w, http.StatusBadRequest, CodeBadRequest, "bytes must be in (0, %d], got %d", int64(maxWS), int64(n))
	}
	if req.Stride < 1 || req.Stride > maxStride {
		return writeError(w, http.StatusBadRequest, CodeBadRequest, "stride must be in [1, %d], got %d", maxStride, req.Stride)
	}
	plans := sh.char.Plan(core.Redistribution{Bytes: n, RemoteStride: req.Stride})
	if len(plans) == 0 {
		return writeError(w, http.StatusUnprocessableEntity, CodeUnsupported, "%s: no feasible strategy", req.Machine)
	}
	resp := PlanResponse{
		Machine: req.Machine, Bytes: int64(n), Stride: req.Stride,
		CalHash:    sh.hashHex,
		Best:       plans[0].Name,
		Strategies: make([]PlanStrategy, 0, len(plans)),
	}
	for _, p := range plans {
		st := PlanStrategy{
			Name:       p.Name,
			TimeUS:     float64(p.Time) / 1e3,
			BWMBps:     p.BW.MBps(),
			Confidence: sh.planConfidence(p.Steps).String(),
		}
		for _, sp := range p.Steps {
			step := PlanStep{
				Locality:    sp.Locality.String(),
				LoadStride:  sp.LoadStride,
				StoreStride: sp.StoreStride,
				Blocked:     sp.Blocked,
			}
			if sp.Locality == core.Remote {
				step.Mode = sp.Mode.String()
			}
			st.Steps = append(st.Steps, step)
		}
		resp.Strategies = append(resp.Strategies, st)
	}
	return write(w, http.StatusOK, func(e *encoder) { e.plan(&resp) })
}

func (s *Server) handleSurfaces(w http.ResponseWriter, r *http.Request) int {
	entries := s.catalog.Entries()
	resp := SurfacesResponse{Surfaces: make([]SurfaceInfo, 0, len(entries))}
	for _, e := range entries {
		resp.Surfaces = append(resp.Surfaces, SurfaceInfo{
			Key: e.File, Machine: e.Machine, Pattern: e.Pattern,
			Kind: kindSurface, Cells: int(e.Cells), Simulated: int(e.Simulated),
			CalHash: hex16(e.CalHash),
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSurfaceSlice(w http.ResponseWriter, r *http.Request) int {
	key := r.PathValue("key")
	e, ok := s.catalog.EntryByFile(key)
	if !ok {
		return writeError(w, http.StatusNotFound, CodeUnknownKey, "no stored artifact %q", key)
	}
	surf, ok := s.catalog.GetSurface(e.Key())
	if !ok {
		return writeError(w, http.StatusNotFound, CodeUnknownKey, "artifact %q is no longer readable", key)
	}
	resp := SurfaceSliceResponse{
		Key: e.File, Machine: e.Machine, Pattern: e.Pattern,
		Kind: kindSurface, CalHash: hex16(e.CalHash),
		Title: surf.Title, Strides: surf.Strides,
	}
	for _, ws := range surf.WorkingSets {
		resp.WorkingSets = append(resp.WorkingSets, int64(ws))
	}
	for wi := range surf.BW {
		row := make([]float64, len(surf.BW[wi]))
		src := make([]string, len(surf.BW[wi]))
		for si := range surf.BW[wi] {
			row[si] = surf.BW[wi][si].MBps()
			src[si] = surf.SourceAt(wi, si).String()
		}
		resp.Grid = append(resp.Grid, row)
		resp.Sources = append(resp.Sources, src)
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) int {
	counts := make(map[string]int)
	for _, mc := range s.catalog.MachineCounts() {
		counts[mc.Machine] = mc.Artifacts
	}
	resp := MachinesResponse{Machines: make([]MachineInfo, 0, len(s.names))}
	for _, name := range s.names {
		sh := s.shards[name]
		info := MachineInfo{
			Name: name, Display: sh.display,
			CalHash:   sh.hashHex,
			Artifacts: counts[sh.display],
			Planner:   make([]ComponentInfo, 0, len(sh.prov)),
		}
		comps := make([]string, 0, len(sh.prov))
		//simlint:ignore determinism keys are sorted immediately below
		for c := range sh.prov {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		for _, c := range comps {
			info.Planner = append(info.Planner, ComponentInfo{Name: c, Confidence: sh.prov[c].String()})
		}
		resp.Machines = append(resp.Machines, info)
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Machines: len(s.names)})
}
