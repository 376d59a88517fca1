package bench

// The sweep pipelines behind Figures 1-14. Every surface and curve
// request runs the same three steps:
//
//   - plan: pick each cell's source — the pool's store, the analytic
//     model, or the simulator;
//   - run: simulate the planned cells through sweep.Pool.Run, under its
//     determinism contract (ColdReset per point, results by index);
//   - write back: put the finished artifact in the store.
//
// A full request serves a stored surface's simulated cells and
// simulates the rest, so completing a pruned artifact costs only its
// analytic cells and yields the bytes of a never-cached full sweep. A
// pruned request serves any stored surface as it is; on a miss the
// analytic.Pruner fills the cells it is sure of and only the uncertain
// ones — regime transitions, marginal absorbers, bank-ripple and
// landing-alias bands — are simulated. Every surface cell carries a
// provenance tag, and every artifact records the calibration hash it
// was computed under.

import (
	"repro/internal/access"
	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// cell simulates one grid point on a ColdReset machine.
type cell func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error)

// modelCell returns the closed form's bandwidth for a point the
// pruner is sure of, or false to send the point to the simulator.
type modelCell func(pr *analytic.Pruner, ws units.Bytes, stride int) (units.BytesPerSec, bool)

// loadCell is the Load Sum kernel of Figures 1, 3 and 6.
func loadCell(idx int) cell {
	base := machine.LocalBase(idx)
	return func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error) {
		return LoadSum(m, idx, access.Pattern{Base: base, WorkingSet: ws, Stride: stride}), nil
	}
}

// copyCell is the local copy kernel of Figures 9-11: the destination
// array sits 1 GB above the source.
func copyCell(idx int, stridedLoads bool) cell {
	base := machine.LocalBase(idx)
	return func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error) {
		cp := access.CopyPattern{SrcBase: base, DstBase: base + 1<<30,
			WorkingSet: ws, LoadStride: 1, StoreStride: 1}
		if stridedLoads {
			cp.LoadStride = stride
		} else {
			cp.StoreStride = stride
		}
		return LocalCopy(m, idx, cp), nil
	}
}

// transferCell is the remote transfer kernel of Figures 2, 4, 5, 7, 8
// and 12-14. stridedLoads selects whether the source reads or the
// destination writes are strided; the other side is contiguous.
func transferCell(src, dst int, opt machine.Options, stridedLoads bool) cell {
	return func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error) {
		cp := access.CopyPattern{
			SrcBase: machine.LocalBase(src), DstBase: machine.LocalBase(dst),
			WorkingSet: ws, LoadStride: 1, StoreStride: 1,
		}
		if stridedLoads {
			cp.LoadStride = stride
		} else {
			cp.StoreStride = stride
		}
		return Transfer(m, src, dst, cp, opt)
	}
}

// surfaceRequest is one stride x working-set grid: where it is
// stored, how to simulate a cell and how to model one.
type surfaceRequest struct {
	cal     machine.Calibration
	key     store.Key
	title   string
	strides []int
	wss     []units.Bytes
	sim     cell
	model   modelCell
}

func loadRequest(p *sweep.Pool, idx int, strides []int, wss []units.Bytes) surfaceRequest {
	cal := p.Machine().Calibration()
	return surfaceRequest{cal: cal, key: LoadSurfaceKey(cal, idx, strides, wss),
		title: "local load bandwidth", strides: strides, wss: wss,
		sim: loadCell(idx),
		model: func(pr *analytic.Pruner, ws units.Bytes, stride int) (units.BytesPerSec, bool) {
			if pr.UncertainLoad(ws, stride) {
				return 0, false
			}
			return pr.Model().LoadBW(ws, stride), true
		}}
}

// transferRequest strides the remote side: the loads for Fetch, the
// stores for Deposit.
func transferRequest(p *sweep.Pool, src, dst int, mode machine.Mode, strides []int, wss []units.Bytes) surfaceRequest {
	cal := p.Machine().Calibration()
	return surfaceRequest{cal: cal, key: TransferSurfaceKey(cal, src, dst, mode, strides, wss),
		title: "remote transfer bandwidth, " + mode.String(), strides: strides, wss: wss,
		sim: transferCell(src, dst, machine.Options{Mode: mode}, mode != machine.Deposit),
		model: func(pr *analytic.Pruner, ws units.Bytes, stride int) (units.BytesPerSec, bool) {
			if pr.UncertainTransfer(mode, ws, stride) {
				return 0, false
			}
			// A mode the closed form cannot express falls back to the
			// simulator cell by cell.
			bw, err := pr.Model().TransferBW(mode, ws, stride)
			return bw, err == nil
		}}
}

// sweepSurface runs the surface pipeline. pruned selects the analytic
// fast path. Returns the surface and how many cells were simulated.
// A failing cell returns its error and leaves the store as it was.
func sweepSurface(p *sweep.Pool, r surfaceRequest, pruned bool) (*surface.Surface, int, error) {
	st := p.Store()
	var s *surface.Surface
	hit := false
	if st != nil {
		s, hit = st.GetSurface(r.key)
	}
	if hit && pruned {
		return s, 0, nil
	}
	var pr *analytic.Pruner
	if !hit {
		s = surface.New(p.Machine().Name(), r.title, r.strides, r.wss)
		s.CalHash = r.cal.Hash()
		if pruned {
			pr = analytic.NewPruner(r.cal)
		}
	}

	// Plan: a stored simulated cell is served, a confident cell is
	// modelled, every other cell is simulated.
	var plan []int
	for wi, ws := range s.WorkingSets {
		for si, stride := range s.Strides {
			if hit && s.SourceAt(wi, si) == surface.Simulated {
				continue
			}
			if pr != nil {
				if bw, ok := r.model(pr, ws, stride); ok {
					s.Set(wi, si, bw)
					s.SetSource(wi, si, surface.Analytic)
					continue
				}
			}
			plan = append(plan, wi*len(s.Strides)+si)
		}
	}
	if hit && len(plan) == 0 {
		return s, 0, nil
	}

	// Run.
	err := p.Run(len(plan), func(m machine.Machine, k int) error {
		wi, si := plan[k]/len(s.Strides), plan[k]%len(s.Strides)
		bw, err := r.sim(m, s.WorkingSets[wi], s.Strides[si])
		if err != nil {
			return err
		}
		s.Set(wi, si, bw)
		s.SetSource(wi, si, surface.Simulated)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Write back. A failed write only costs future hits — the sweep's
	// result stands — so it is not propagated.
	if st != nil {
		_ = st.PutSurface(r.key, s)
	}
	return s, len(plan), nil
}

// sweepCurve runs the curve pipeline: a fixed working set, one cell
// per stride. Curves are never partial, so the plan is all or
// nothing. The working set is clamped to transferCap, the sample every
// copy and transfer cell measures at most.
func sweepCurve(p *sweep.Pool, key store.Key, title string, ws units.Bytes, strides []int, sim cell) (*surface.Curve, error) {
	st := p.Store()
	if st != nil {
		if c, ok := st.GetCurve(key); ok {
			return c, nil
		}
	}
	ws = min(ws, transferCap)
	c := &surface.Curve{Machine: p.Machine().Name(), Title: title,
		CalHash: p.Machine().Calibration().Hash(),
		Strides: append([]int(nil), strides...),
		BW:      make([]units.BytesPerSec, len(strides))}
	err := p.Run(len(strides), func(m machine.Machine, i int) error {
		bw, err := sim(m, ws, strides[i])
		if err != nil {
			return err
		}
		c.BW[i] = bw
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st != nil {
		_ = st.PutCurve(key, c)
	}
	return c, nil
}

// LoadSurface sweeps LoadSum over the grid — Figures 1, 3, and 6.
// Points fan out across the pool's workers; results land by index, so
// the surface is byte-identical whatever the pool width or the state
// of the pool's store.
func LoadSurface(p *sweep.Pool, idx int, strides []int, wss []units.Bytes) *surface.Surface {
	// The load kernel cannot fail; the pipeline's error is always nil.
	s, _, _ := sweepSurface(p, loadRequest(p, idx, strides, wss), false)
	return s
}

// LoadSurfacePruned is LoadSurface with the analytic fast path
// filling the confident cells. Returns the surface and how many cells
// were simulated.
func LoadSurfacePruned(p *sweep.Pool, idx int, strides []int, wss []units.Bytes) (*surface.Surface, int) {
	s, simulated, _ := sweepSurface(p, loadRequest(p, idx, strides, wss), true)
	return s, simulated
}

// TransferSurface sweeps remote transfers over the grid — Figures 2,
// 4, 5, 7, and 8. The stride applies to the remote side: the loads
// for Fetch, the stores for Deposit; the local side is contiguous.
func TransferSurface(p *sweep.Pool, src, dst int, mode machine.Mode, strides []int, wss []units.Bytes) (*surface.Surface, error) {
	s, _, err := sweepSurface(p, transferRequest(p, src, dst, mode, strides, wss), false)
	return s, err
}

// TransferSurfacePruned is TransferSurface with the analytic fast
// path filling the confident cells. Returns the surface and how many
// cells were simulated.
func TransferSurfacePruned(p *sweep.Pool, src, dst int, mode machine.Mode, strides []int, wss []units.Bytes) (*surface.Surface, int, error) {
	return sweepSurface(p, transferRequest(p, src, dst, mode, strides, wss), true)
}

// CopyCurve sweeps LocalCopy over strides at a fixed large working
// set — Figures 9-11. stridedLoads selects which side is strided.
func CopyCurve(p *sweep.Pool, idx int, ws units.Bytes, strides []int, stridedLoads bool) *surface.Curve {
	title := "local copy, contiguous loads/strided stores"
	if stridedLoads {
		title = "local copy, strided loads/contiguous stores"
	}
	key := CopyCurveKey(p.Machine().Calibration(), idx, ws, strides, stridedLoads)
	// The copy kernel cannot fail; the pipeline's error is always nil.
	c, _ := sweepCurve(p, key, title, ws, strides, copyCell(idx, stridedLoads))
	return c
}

// TransferCurve sweeps remote transfers over strides at a fixed large
// working set — Figures 12-14. stridedLoads selects whether the
// source reads or the destination writes are strided.
func TransferCurve(p *sweep.Pool, src, dst int, ws units.Bytes, strides []int, mode machine.Mode, stridedLoads bool, pipelined bool) (*surface.Curve, error) {
	title := "remote copy, " + mode.String()
	if stridedLoads {
		title += ", strided loads/contiguous stores"
	} else {
		title += ", contiguous loads/strided stores"
	}
	key := TransferCurveKey(p.Machine().Calibration(), src, dst, ws, strides, mode, stridedLoads, pipelined)
	opt := machine.Options{Mode: mode, Pipelined: pipelined}
	return sweepCurve(p, key, title, ws, strides, transferCell(src, dst, opt, stridedLoads))
}
