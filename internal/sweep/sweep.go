// Package sweep fans the independent grid points of a stride x
// working-set sweep across a bounded worker pool. Every point of the
// paper's surfaces is its own experiment — ColdReset, prime, measure
// on private machine state — so points can run on any worker in any
// order as long as results land by index. That is the package's
// determinism contract:
//
//   - each worker owns a private machine instance built by the pool's
//     factory, reused across points and ColdReset before every kernel
//     call, so a point's timing depends only on the point itself;
//   - kernels write results into caller-owned slices at the point
//     index, never by appending from goroutines;
//   - a single-worker pool runs the kernel inline on the calling
//     goroutine in index order — the exact legacy sequential path;
//   - a wider pool hands points out longest-first, from index n-1
//     down to 0. Every grid is working-set-major with working sets
//     ascending, and a point costs more host time the larger its
//     working set, so the slowest points start first and no worker
//     is left alone with one of them at the end of the sweep. The
//     order changes only which worker runs a point and when, never
//     its result.
//
// Under this contract the assembled surface.Surface artifacts — full
// grids and the one-row fixed-working-set sweeps alike — are
// byte-identical whatever the worker count.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/probe"
	"repro/internal/store"
)

// Pool schedules sweep points over a fixed set of workers.
type Pool struct {
	factory  func() machine.Machine
	workers  int
	machines []machine.Machine
	points   int64
	store    *store.Store
}

// NewPool builds a pool of the given width. workers <= 0 selects
// runtime.GOMAXPROCS(0). Machines are built lazily, one per worker
// that actually runs. The pool is not safe for concurrent Run calls.
func NewPool(factory func() machine.Machine, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{factory: factory, workers: workers}
}

// Seq wraps an existing machine instance in a single-worker pool:
// every kernel runs inline on the calling goroutine against m, in
// index order. It is the adapter for callers that hold a machine and
// want the legacy sequential behaviour.
func Seq(m machine.Machine) *Pool {
	return &Pool{workers: 1, machines: []machine.Machine{m}}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// SetStore attaches a persistent surface store. The bench sweep
// functions consult an attached store before scheduling points and
// write completed artifacts back; a nil store (the default) leaves
// every sweep fully simulated.
func (p *Pool) SetStore(s *store.Store) { p.store = s }

// Store returns the attached surface store, or nil.
func (p *Pool) Store() *store.Store { return p.store }

// Points returns the total number of grid points scheduled so far.
func (p *Pool) Points() int64 { return p.points }

// Machine returns worker 0's machine for metadata queries (name,
// preferred partner, node configuration). Mutating it between Run
// calls is safe — every point starts with ColdReset — but reading
// measurements from it is only meaningful on a single-worker pool.
func (p *Pool) Machine() machine.Machine { return p.machine(0) }

// machine returns (building if needed) worker k's private instance.
func (p *Pool) machine(k int) machine.Machine {
	for len(p.machines) <= k {
		p.machines = append(p.machines, p.factory())
	}
	return p.machines[k]
}

// Run executes kernel for every point index 0..n-1, each on a
// ColdReset machine. Kernels must store results by index i into
// caller-owned storage. Returns the error of the lowest failing
// index, or nil. On a single-worker pool the kernel runs inline in
// index order and Run fails fast at the first error, exactly like the
// sequential loops it replaces. A wider pool hands indices out from
// n-1 down, the costliest points first.
func (p *Pool) Run(n int, kernel func(m machine.Machine, i int) error) error {
	if n <= 0 {
		return nil
	}
	p.points += int64(n)
	if p.workers == 1 || n == 1 {
		m := p.machine(0)
		for i := 0; i < n; i++ {
			m.ColdReset()
			if err := kernel(m, i); err != nil {
				return err
			}
		}
		return nil
	}

	w := p.workers
	if w > n {
		w = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		m := p.machine(k)
		wg.Add(1)
		go func(m machine.Machine) {
			defer wg.Done()
			for {
				i := n - int(next.Add(1))
				if i < 0 {
					return
				}
				m.ColdReset()
				errs[i] = kernel(m, i)
			}
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunCaptured executes kernel like Run and additionally captures each
// point's probe state (counter snapshot + trace events) right after
// its kernel returns, before the worker's machine moves on to another
// point. Captures land by index, so the returned slice is identical
// whatever the worker count — the trace-merging contract that keeps
// `-j N` output byte-equal to `-j 1`. Failed points carry a zero
// Capture.
func (p *Pool) RunCaptured(n int, kernel func(m machine.Machine, i int) error) ([]probe.Capture, error) {
	caps := make([]probe.Capture, n)
	err := p.Run(n, func(m machine.Machine, i int) error {
		kerr := kernel(m, i)
		if kerr == nil {
			caps[i] = m.Probe().Capture()
		}
		return kerr
	})
	return caps, err
}
