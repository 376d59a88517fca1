package serve

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/analytic"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/units"
)

// Planner component names: the provenance map keys tying each
// characterization curve to the confidence its answers carry.
const (
	compLoad    = "load"
	compCopySL  = "copy-sl"
	compCopySS  = "copy-ss"
	compFetch   = "fetch"
	compDeposit = "deposit"
	compBlocked = "blocked"
)

// shard serves one machine: its own store instance (own lock, own
// LRU) over the shared directory, a lookup handle bound to the
// machine's calibration (which holds the shard's one analytic model),
// and a planner characterization rebuilt from stored artifacts at
// startup. Everything here except the answer counters is read-only
// after newShard; the store guards its own mutation internally.
type shard struct {
	key     string // short name: "8400", "t3d", "t3e"
	display string // calibration display name: "DEC 8400", ...
	cal     machine.Calibration
	hashHex string // the calibration hash as every response spells it
	partner int    // canonical remote partner for planner transfers
	st      *store.Store
	q       *store.Querier
	char    *core.Characterization
	// answers counts the shard's bandwidth answers by confidence,
	// indexed by store.Confidence. Atomics, so batch workers count
	// without a lock.
	answers [3]atomic.Int64
	// prov grades each characterization component by where its curve
	// came from: Exact (stored, fully simulated), Interpolated
	// (stored but partially analytic), Analytic (synthesized).
	prov map[string]store.Confidence
	grid core.MeasureOptions
}

// shardNames returns the served machine keys in sorted order.
func shardNames() []string {
	fs := report.Factories()
	names := make([]string, 0, len(fs))
	//simlint:ignore determinism keys are sorted immediately below
	for k := range fs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// newShard builds the shard for one machine key. The machine instance
// exists only long enough to read its calibration and pick the
// canonical transfer partner — nothing is simulated, here or ever.
func newShard(name string, cfg Config) (*shard, error) {
	f, ok := report.Factories()[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown machine %q", name)
	}
	m := f()
	st, err := store.Open(cfg.StoreDir, store.Options{
		CacheEntries: cfg.CacheEntries, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	sh := &shard{
		key:     name,
		display: m.Name(),
		cal:     m.Calibration(),
		partner: machine.PreferredPartner(m),
		st:      st,
		grid:    core.DefaultMeasure(),
	}
	sh.q = st.For(sh.cal)
	sh.hashHex = hex16(sh.q.Hash())
	sh.buildChar()
	return sh, nil
}

// lookup answers one bandwidth query from the shard's store (exact or
// interpolated) or the analytic model, and counts its confidence.
func (sh *shard) lookup(p store.Pattern, mode machine.Mode, ws units.Bytes, stride int) (store.Result, error) {
	res, err := sh.q.Lookup(p, mode, ws, stride)
	if err == nil {
		sh.answers[res.Confidence].Add(1)
	}
	return res, err
}

// buildChar reconstructs the planner characterization from stored
// artifacts on the core.DefaultMeasure grids — the exact keys
// core.Measure writes through bench — and synthesizes any missing
// curve from the analytic model. The provenance of every component is
// recorded so planner responses can carry an honest confidence tag.
func (sh *shard) buildChar() {
	opt := sh.grid
	c := &core.Characterization{MachineName: sh.display}
	prov := make(map[string]store.Confidence)

	if s, ok := sh.st.GetSurface(bench.LoadSurfaceKey(sh.cal, 0, opt.Strides, opt.WorkingSets)); ok {
		c.LocalLoad = s
		prov[compLoad] = surfaceConfidence(s)
	} else {
		c.LocalLoad = analytic.LoadSurface(sh.cal, opt.Strides, opt.WorkingSets)
		prov[compLoad] = store.Analytic
	}

	c.LocalCopyStridedLoads, prov[compCopySL] = sh.copyCurve(true)
	c.LocalCopyStridedStores, prov[compCopySS] = sh.copyCurve(false)

	if cur, conf, ok := sh.transferCurve(machine.Fetch, true, false); ok {
		c.RemoteFetch = cur
		prov[compFetch] = conf
	}
	if cur, conf, ok := sh.transferCurve(machine.Deposit, false, false); ok {
		c.RemoteDeposit = cur
		prov[compDeposit] = conf
	}
	if cur, conf, ok := sh.transferCurve(machine.Fetch, true, true); ok {
		c.BlockedFetch = cur
		prov[compBlocked] = conf
	}
	sh.char = c
	sh.prov = prov
}

// copyCurve returns the local copy curve for one strided side: the
// stored sweep artifact when present, else an analytic synthesis —
// load and store phases composed serially through the load model.
func (sh *shard) copyCurve(stridedLoads bool) (*surface.Curve, store.Confidence) {
	opt := sh.grid
	key := bench.CopyCurveKey(sh.cal, 0, opt.CopyWS, opt.Strides, stridedLoads)
	if cur, ok := sh.st.GetCurve(key); ok {
		return cur, store.Exact
	}
	cur := &surface.Curve{
		Machine: sh.display, Title: "analytic local copy",
		CalHash: sh.q.Hash(),
		Strides: append([]int(nil), opt.Strides...),
		BW:      make([]units.BytesPerSec, len(opt.Strides)),
	}
	model := sh.q.Model()
	for i, stride := range opt.Strides {
		load, stores := stride, 1
		if !stridedLoads {
			load, stores = 1, stride
		}
		cur.BW[i] = serialBW(model.LoadBW(opt.CopyWS, load), model.LoadBW(opt.CopyWS, stores))
	}
	return cur, store.Analytic
}

// transferCurve returns one remote transfer curve: the stored sweep
// artifact when present, else the analytic model's prediction. ok is
// false when the machine supports neither (e.g. deposit on the 8400),
// which leaves the planner strategy unavailable — matching what
// core.Measure produces against the simulator.
func (sh *shard) transferCurve(mode machine.Mode, stridedLoads, pipelined bool) (*surface.Curve, store.Confidence, bool) {
	opt := sh.grid
	key := bench.TransferCurveKey(sh.cal, 0, sh.partner, opt.CopyWS, opt.Strides, mode, stridedLoads, pipelined)
	if cur, ok := sh.st.GetCurve(key); ok {
		return cur, store.Exact, true
	}
	// The closed form does not model pipelined chunking; the plain
	// mode curve stands in, still honestly tagged analytic.
	cur := &surface.Curve{
		Machine: sh.display, Title: "analytic remote copy, " + mode.String(),
		CalHash: sh.q.Hash(),
		Strides: append([]int(nil), opt.Strides...),
		BW:      make([]units.BytesPerSec, len(opt.Strides)),
	}
	for i, stride := range opt.Strides {
		bw, err := sh.q.Model().TransferBW(mode, opt.CopyWS, stride)
		if err != nil {
			return nil, store.Analytic, false
		}
		cur.BW[i] = bw
	}
	return cur, store.Analytic, true
}

// serialBW composes two pipeline phases that do not overlap
// (1/bw = 1/a + 1/b), spelled through the units helpers: move a
// reference volume through both phases and measure the total.
func serialBW(a, b units.BytesPerSec) units.BytesPerSec {
	if a <= 0 || b <= 0 {
		return 0
	}
	const n = units.MB
	return units.BW(n, units.TimeFor(n, a)+units.TimeFor(n, b))
}

// surfaceConfidence grades a stored surface: Exact when every cell is
// simulated, Interpolated when a pruned sweep's analytic fills remain.
func surfaceConfidence(s *surface.Surface) store.Confidence {
	for wi := range s.BW {
		for si := range s.BW[wi] {
			if s.SourceAt(wi, si) != surface.Simulated {
				return store.Interpolated
			}
		}
	}
	return store.Exact
}

// stepComponent names the characterization curve core.Bandwidth would
// consult for one planner step (mirrors its dispatch exactly).
func (sh *shard) stepComponent(sp core.Spec) string {
	if sp.Locality == core.Local {
		if sp.LoadStride >= sp.StoreStride {
			return compCopySL
		}
		return compCopySS
	}
	switch {
	case sp.Mode == machine.Fetch && sp.Blocked && sh.char.BlockedFetch != nil:
		return compBlocked
	case sp.Mode == machine.Fetch:
		return compFetch
	default:
		return compDeposit
	}
}

// stepConfidence grades one planner step: the component curve's base
// provenance, degraded to Interpolated when an exact curve is read
// off-grid (Curve.At interpolates between measured strides).
func (sh *shard) stepConfidence(sp core.Spec) store.Confidence {
	base, ok := sh.prov[sh.stepComponent(sp)]
	if !ok {
		return store.Analytic
	}
	if base != store.Exact {
		return base
	}
	stride := sp.LoadStride
	if sp.StoreStride > stride {
		stride = sp.StoreStride
	}
	if stride < 1 {
		stride = 1
	}
	for _, s := range sh.grid.Strides {
		if s == stride {
			return store.Exact
		}
	}
	return store.Interpolated
}

// planConfidence grades a whole strategy: the worst confidence over
// its steps.
func (sh *shard) planConfidence(steps []core.Spec) store.Confidence {
	worst := store.Exact
	for _, sp := range steps {
		if c := sh.stepConfidence(sp); c > worst {
			worst = c
		}
	}
	return worst
}
