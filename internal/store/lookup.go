package store

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/units"
)

// Confidence grades a Lookup answer by how it was produced.
type Confidence int

const (
	// Exact: the query hit a stored grid cell whose value came from
	// the simulator — byte-identical to running the sweep.
	Exact Confidence = iota
	// Interpolated: the query fell between stored simulated cells
	// that all sit in the same analytic regime, so log2-bilinear
	// interpolation is sound.
	Interpolated
	// Analytic: no stored cells could answer (off the hull, across a
	// regime boundary, or nothing cached) — the closed-form model
	// answered instead.
	Analytic
)

func (c Confidence) String() string {
	switch c {
	case Exact:
		return "exact"
	case Interpolated:
		return "interpolated"
	case Analytic:
		return "analytic"
	}
	return fmt.Sprintf("Confidence(%d)", int(c))
}

// Result is a Lookup answer: a bandwidth and how much to trust it.
type Result struct {
	BW         units.BytesPerSec
	Confidence Confidence
}

// Lookup answers an off-grid bandwidth query from the store. It is
// For(cal).Lookup(p, mode, ws, stride); a caller that issues many
// queries for one calibration should hold the Querier instead, so
// the calibration is hashed and modelled, and the stored surfaces
// indexed, once rather than per query.
func (s *Store) Lookup(cal machine.Calibration, p Pattern, mode machine.Mode, ws units.Bytes, stride int) (Result, error) {
	return s.For(cal).Lookup(p, mode, ws, stride)
}

// Querier answers Lookups for one calibration against one store. It
// derives the calibration hash and the analytic model once, at For,
// and reads the stored surfaces through an immutable index that a
// Lookup rebuilds whenever the store's generation has moved, so a
// surface Put after For is served by the next Lookup. A Querier is
// safe for concurrent use; a Lookup against a current index takes no
// lock.
type Querier struct {
	st      *Store
	machine string
	hash    uint64
	model   *analytic.Model
	idx     atomic.Pointer[surfaceIndex]
}

// surfaceIndex is the stored full-grid surfaces one Querier can serve
// from: for each lookup slot, the surfaces of that family under the
// Querier's machine and calibration hash, in manifest order. It is
// never mutated after it is published; gen is the store generation
// it reflects.
type surfaceIndex struct {
	gen   uint64
	slots [numSlots][]*surface.Surface
}

// The lookup slots: the families Lookup serves from. A load query
// ignores its mode; a transfer query has one slot per mode, at
// slotTransfer + mode.
const (
	slotLoad = iota
	slotTransfer
	numSlots = slotTransfer + int(machine.NaiveFetch) + 1
)

// slotPrefixes is each slot's family prefix ("load@",
// "transfer-fetch@", ...). It matches the full-grid sweeps only: the
// one-row artifacts belong to other families or carry a variant
// ("copy-sl@0", "load-pt@0").
var slotPrefixes = [numSlots]string{
	slotLoad:                               PatternLoad.With(""),
	slotTransfer + int(machine.Fetch):      PatternTransfer.With(machine.Fetch.String()),
	slotTransfer + int(machine.Deposit):    PatternTransfer.With(machine.Deposit.String()),
	slotTransfer + int(machine.NaiveFetch): PatternTransfer.With(machine.NaiveFetch.String()),
}

// slotOf returns the lookup slot of a query; ok is false for a
// pattern or mode no stored sweep can serve.
func slotOf(p Pattern, mode machine.Mode) (int, bool) {
	switch {
	case p == PatternLoad:
		return slotLoad, true
	case p == PatternTransfer && mode >= machine.Fetch && mode <= machine.NaiveFetch:
		return slotTransfer + int(mode), true
	}
	return 0, false
}

// For binds the store to one calibration.
func (s *Store) For(cal machine.Calibration) *Querier {
	return &Querier{st: s, machine: cal.Machine, hash: cal.Hash(), model: analytic.New(cal)}
}

// Hash returns the bound calibration's hash, the CalHash of every
// stored artifact the Querier can serve.
func (q *Querier) Hash() uint64 { return q.hash }

// Model returns the analytic model of the bound calibration, the
// fallback of every Lookup.
func (q *Querier) Model() *analytic.Model { return q.model }

// Lookup serves the query from the stored surfaces matching (machine,
// calibration, pattern, mode), in order of preference: the exact
// simulated cell; a log2-bilinear interpolation between simulated
// cells when the bracketing working sets share one analytic regime
// (interpolating across a regime boundary — e.g. across the
// cache-capacity cliff — would average two different mechanisms, so
// it is refused); else the analytic model, tagged so the caller knows
// no measurement backs it.
//
// mode is ignored for PatternLoad. Transfers that the analytic model
// cannot express return the model's error.
func (q *Querier) Lookup(p Pattern, mode machine.Mode, ws units.Bytes, stride int) (Result, error) {
	if slot, ok := slotOf(p, mode); ok {
		for _, surf := range q.index().slots[slot] {
			if r, ok := serveFrom(surf, q.model, ws, stride); ok {
				return r, nil
			}
		}
	}
	return analyticResult(q.model, p, mode, ws, stride)
}

// index returns the Querier's surface index, rebuilding it when the
// store has changed since it was built.
func (q *Querier) index() *surfaceIndex {
	if idx := q.idx.Load(); idx != nil && idx.gen == q.st.gen.Load() {
		return idx
	}
	return q.st.buildIndex(q)
}

// buildIndex loads every stored surface q can serve, publishes the
// index in q and returns it. It runs under s.mu, so an index is
// published in generation order.
func (s *Store) buildIndex(q *Querier) *surfaceIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Snapshot the matching keys first: load() can mutate the entry
	// slice when it quarantines.
	var keys [numSlots][]Key
	for i := range s.man.Entries {
		e := &s.man.Entries[i]
		if e.Machine != q.machine || e.CalHash != q.hash {
			continue
		}
		for slot, prefix := range slotPrefixes {
			if strings.HasPrefix(e.Pattern, prefix) {
				keys[slot] = append(keys[slot], e.Key())
				break
			}
		}
	}
	idx := &surfaceIndex{}
	for slot := range keys {
		for _, k := range keys[slot] {
			if surf, ok := s.load(k); ok {
				idx.slots[slot] = append(idx.slots[slot], surf)
			}
		}
	}
	// Read after the loads: a quarantine among them moves it.
	idx.gen = s.gen.Load()
	q.idx.Store(idx)
	return idx
}

// serveFrom answers the query from one stored surface if it can:
// exact simulated cell, or in-regime interpolation between simulated
// cells.
func serveFrom(surf *surface.Surface, model *analytic.Model, ws units.Bytes, stride int) (Result, bool) {
	i0, i1, ok := bracket(len(surf.WorkingSets), func(i int) bool { return surf.WorkingSets[i] >= ws })
	if !ok || surf.WorkingSets[i0] > ws {
		return Result{}, false
	}
	j0, j1, ok := bracket(len(surf.Strides), func(j int) bool { return surf.Strides[j] >= stride })
	if !ok || surf.Strides[j0] > stride {
		return Result{}, false
	}
	// After the hull checks, ws lies in (wss[i0], wss[i1]] when the
	// indices differ and equals wss[i0] when they coincide; likewise
	// for stride. Exact means the query sits on the grid line.
	exactWS := surf.WorkingSets[i1] == ws
	exactStride := surf.Strides[j1] == stride
	if exactWS {
		i0 = i1
	}
	if exactStride {
		j0 = j1
	}
	for _, i := range []int{i0, i1} {
		for _, j := range []int{j0, j1} {
			if surf.SourceAt(i, j) != surface.Simulated {
				return Result{}, false
			}
		}
	}
	if exactWS && exactStride {
		return Result{BW: surf.BW[i0][j0], Confidence: Exact}, true
	}
	// Interpolation is only sound within one analytic regime: the
	// query and both bracketing working sets must agree on which
	// memory level provides the data.
	if model.Regime(surf.WorkingSets[i0]) != model.Regime(surf.WorkingSets[i1]) ||
		model.Regime(ws) != model.Regime(surf.WorkingSets[i0]) {
		return Result{}, false
	}
	return Result{BW: surf.At(ws, stride), Confidence: Interpolated}, true
}

// bracket finds the first index where pred holds and returns it with
// its predecessor, clamped: (i-1, i). ok is false when pred never
// holds (the query is above the axis).
func bracket(n int, pred func(int) bool) (lo, hi int, ok bool) {
	for i := 0; i < n; i++ {
		if pred(i) {
			if i == 0 {
				return 0, 0, true
			}
			return i - 1, i, true
		}
	}
	return 0, 0, false
}

// analyticResult answers from the closed-form model.
func analyticResult(model *analytic.Model, p Pattern, mode machine.Mode, ws units.Bytes, stride int) (Result, error) {
	switch p {
	case PatternLoad:
		return Result{BW: model.LoadBW(ws, stride), Confidence: Analytic}, nil
	case PatternTransfer:
		bw, err := model.TransferBW(mode, ws, stride)
		if err != nil {
			return Result{}, err
		}
		return Result{BW: bw, Confidence: Analytic}, nil
	}
	return Result{}, fmt.Errorf("store: no analytic fallback for pattern %q", p)
}
