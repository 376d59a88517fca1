package bench

// Store-key recipes for the sweep artifacts this package persists.
// They are exported so read-only consumers — memserve's planner
// shards, which rebuild a core.Characterization from the store
// without ever simulating — address exactly the artifacts the sweeps
// here wrote. The sweep functions below build their keys through the
// same helpers, so the recipe cannot drift.

import (
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/units"
)

// LoadSurfaceKey is the store key of LoadSurface's artifact: the
// local load bandwidth grid swept on node idx.
func LoadSurfaceKey(cal machine.Calibration, idx int, strides []int, wss []units.Bytes) store.Key {
	return store.NewKey(cal, store.PatternLoad.With("", idx), strides, wss)
}

// TransferSurfaceKey is the store key of TransferSurface's artifact:
// the remote transfer grid from src to dst under mode.
func TransferSurfaceKey(cal machine.Calibration, src, dst int, mode machine.Mode, strides []int, wss []units.Bytes) store.Key {
	return store.NewKey(cal, store.PatternTransfer.With(mode.String(), src, dst), strides, wss)
}

// CopyCurveKey is the store key of CopyCurve's one-row artifact. The
// working set is clamped to the transfer cap exactly as the sweep
// clamps it, so two over-cap requests share one entry.
func CopyCurveKey(cal machine.Calibration, idx int, ws units.Bytes, strides []int, stridedLoads bool) store.Key {
	return store.NewKey(cal, store.PatternCopy.With(stridedSide(stridedLoads), idx),
		strides, curveRow(ws))
}

// TransferCurveKey is the store key of TransferCurve's one-row
// artifact, with the working set clamped as CopyCurveKey clamps it.
func TransferCurveKey(cal machine.Calibration, src, dst int, ws units.Bytes, strides []int, mode machine.Mode, stridedLoads, pipelined bool) store.Key {
	variant := mode.String() + "-" + stridedSide(stridedLoads)
	if pipelined {
		variant += "-p"
	}
	return store.NewKey(cal, store.PatternRemoteCopy.With(variant, src, dst), strides, curveRow(ws))
}

// stridedSide names the strided side of a copy: "sl" for strided
// loads, "ss" for strided stores.
func stridedSide(stridedLoads bool) string {
	if stridedLoads {
		return "sl"
	}
	return "ss"
}

// curveRow is the working-set axis of a fixed-working-set sweep: the
// one working set, clamped to transferCap, the sample every copy and
// transfer cell measures at most.
func curveRow(ws units.Bytes) []units.Bytes {
	return []units.Bytes{min(ws, transferCap)}
}
