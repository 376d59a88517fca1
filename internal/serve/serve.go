// Package serve is the characterization service: an HTTP/JSON face
// over the surface store, the analytic model, and the copy-transfer
// planner. It answers the query a parallelizing compiler would fire
// millions of times — "what bandwidth will this (machine, pattern,
// working set, stride) see, and which transfer mechanism is
// cheapest?" — at memory-lookup latency, never invoking the
// simulator: stored simulated cells serve exact answers, in-regime
// interpolation serves near-grid queries, and the closed-form model
// answers everything else, each response tagged with its confidence.
//
// Endpoints:
//
//	POST /v1/bandwidth          one bandwidth query
//	POST /v1/bandwidth/batch    N queries, answered concurrently
//	POST /v1/plan               cheapest-transfer planner decision
//	GET  /v1/surfaces           enumerate stored artifacts
//	GET  /v1/surfaces/{key}     slice one stored artifact
//	GET  /v1/machines           the served machines and their planner provenance
//	GET  /healthz               liveness
//	GET  /metrics               per-endpoint, per-machine answer and per-store counters
//
// Concurrency model: one shard per machine, each with its own
// store.Store instance (its own mutex and LRU) over the shared store
// directory, so T3E traffic never contends with 8400 traffic on a
// lock. Each shard holds a store.Querier bound to its calibration, so
// the calibration is hashed and modelled once at startup, never per
// query. Shards are immutable after construction except for their
// answer-confidence counters, which are atomics; the other mutable
// server state is the metrics registry (probe.LockedRegistry) and
// each shard's store, both internally locked. A batch starts at most
// Workers goroutines; each holds one slot of a server-wide semaphore
// and takes query indices from a shared counter, and answers land by
// index, so batch responses are byte-identical whatever the worker
// width.
package serve

import (
	"net/http"
	"sort"

	"repro/internal/probe"
	"repro/internal/store"
)

// DefaultWorkers bounds concurrent batch-element evaluation when
// Config leaves Workers zero.
const DefaultWorkers = 8

// Config tunes a Server.
type Config struct {
	// StoreDir is the surface store directory every shard reads.
	// Required; an empty or fresh directory is valid (all queries
	// answer analytically).
	StoreDir string
	// Workers bounds concurrent batch-element evaluation; <= 0
	// selects DefaultWorkers. The response bytes do not depend on it.
	Workers int
	// CacheEntries sizes each shard store's in-memory LRU; <= 0
	// selects the store default.
	CacheEntries int
	// Logf, when non-nil, receives store quarantine warnings.
	Logf func(format string, args ...any)
}

// Server answers characterization queries over HTTP. All exported
// state is read-only after New; see the package comment for the
// concurrency model.
type Server struct {
	shards  map[string]*shard
	names   []string     // sorted shard keys; every response iterates these
	catalog *store.Store // read-only enumeration view for /v1/surfaces
	metrics *probe.LockedRegistry
	sem     chan struct{} // bounds in-flight batch elements
	mux     *http.ServeMux
}

// New builds a server over the store directory: one shard per known
// machine, each with its own store instance and a planner
// characterization reconstructed from stored artifacts (analytic
// fallback for anything not stored — never the simulator).
func New(cfg Config) (*Server, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	s := &Server{
		shards:  make(map[string]*shard),
		metrics: probe.NewLockedRegistry(),
		sem:     make(chan struct{}, workers),
	}
	for _, name := range shardNames() {
		sh, err := newShard(name, cfg)
		if err != nil {
			return nil, err
		}
		s.shards[name] = sh
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	catalog, err := store.Open(cfg.StoreDir, store.Options{
		CacheEntries: cfg.CacheEntries, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	s.catalog = catalog
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Machines returns the served machine keys in sorted order.
func (s *Server) Machines() []string {
	return append([]string(nil), s.names...)
}

func (s *Server) routes() {
	s.mux.Handle("POST /v1/bandwidth", s.instrument("bandwidth", s.handleBandwidth))
	s.mux.Handle("POST /v1/bandwidth/batch", s.instrument("batch", s.handleBatch))
	s.mux.Handle("POST /v1/plan", s.instrument("plan", s.handlePlan))
	s.mux.Handle("GET /v1/surfaces", s.instrument("surfaces", s.handleSurfaces))
	s.mux.Handle("GET /v1/surfaces/{key}", s.instrument("surface", s.handleSurfaceSlice))
	s.mux.Handle("GET /v1/machines", s.instrument("machines", s.handleMachines))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
}
