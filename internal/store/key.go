// Package store is the persistent, content-addressed surface store:
// the fast face of the characterization. It holds one artifact kind,
// the stride x working-set bandwidth surface; a fixed-working-set
// stride sweep (Figures 9-14, the headline table points) is a
// one-row surface. Every surface is keyed by the machine calibration
// it was measured from, the access pattern, and a signature of the
// sweep grid, and persisted as a byte-stable snapshot under a store
// directory next to a versioned manifest. An in-memory LRU serves
// repeated reads without touching the disk, a Querier indexes the
// surfaces its lookups serve so a lookup takes no lock, and the sweep
// layer
// (sweep.Pool + bench) consults the store before simulating: a
// whole-surface hit is free, a partially-simulated surface (a pruned
// sweep's artifact) costs only its cold cells, and a calibration
// change misses everything.
//
// The store's invariants:
//
//   - cells served from the store are byte-identical to a fresh
//     simulation: every persisted cell was produced by the
//     deterministic ColdReset-per-point sweep contract under the same
//     calibration hash, so replaying it is exact;
//   - a calibration hash mismatch is a total miss, never a stale
//     serve — the hash is part of the key and is re-verified against
//     the decoded artifact;
//   - a corrupt entry (truncated, bit-flipped, wrong version) is
//     quarantined (renamed aside, logged, dropped from the manifest)
//     and its cells re-simulated; corruption is never a crash and
//     never a silent wrong serve.
package store

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/units"
)

// Pattern names the benchmark family a stored artifact was measured
// by. Together with the machine name, the transfer mode, and the node
// indices it identifies *what* was swept; the grid signature
// identifies *where*.
type Pattern string

const (
	// PatternLoad is the local Load Sum sweep (Figures 1, 3, 6).
	PatternLoad Pattern = "load"
	// PatternTransfer is the remote transfer sweep (Figures 2, 4, 5,
	// 7, 8); the mode distinguishes fetch from deposit.
	PatternTransfer Pattern = "transfer"
	// PatternCopy is the local copy stride sweep at a fixed working
	// set (Figures 9-11).
	PatternCopy Pattern = "copy"
	// PatternRemoteCopy is the remote copy stride sweep at a fixed
	// working set (Figures 12-14).
	PatternRemoteCopy Pattern = "remotecopy"
)

// With composes a key's pattern string: the family, then the
// variant when it is not empty (the transfer mode and any fixed sweep
// parameters), then "@" and the node indices joined by "-". For
// example "load@0", "transfer-fetch@0-1", "copy-sl@0",
// "remotecopy-fetch-sl-p@0-1" and "load-pt@0". With no nodes it is
// the prefix every pattern of that family and variant starts with.
func (p Pattern) With(variant string, nodes ...int) string {
	var b strings.Builder
	b.Grow(len(p) + len(variant) + 8)
	b.WriteString(string(p))
	if variant != "" {
		b.WriteByte('-')
		b.WriteString(variant)
	}
	b.WriteByte('@')
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.Itoa(n))
	}
	return b.String()
}

// Key is the content address of one stored artifact: calibration
// hash x pattern x grid signature. Two sweeps with the same key
// compute, cell for cell, the same deterministic result, which is
// what makes serving from the store exact.
type Key struct {
	// Machine is the machine's display name (Calibration.Machine).
	Machine string
	// Pattern names the benchmark family, with the transfer mode and
	// any fixed sweep parameters folded in (Pattern.With).
	Pattern string
	// CalHash is the machine calibration hash the sweep ran under.
	CalHash uint64
	// GridSig digests the sweep grid: the stride axis and the
	// working-set axis.
	GridSig uint64
}

// fnv1a is the 64-bit FNV-1a accumulator the grid signature and the
// entry checksum use: stable across platforms, cheap, and already the
// repo's calibration-hash primitive.
type fnv1a uint64

const fnvOffset fnv1a = 14695981039346656037

func (h fnv1a) byte(b byte) fnv1a { return (h ^ fnv1a(b)) * 1099511628211 }

func (h fnv1a) u64(v uint64) fnv1a {
	for i := 0; i < 8; i++ {
		h = h.byte(byte(v >> (8 * i)))
	}
	return h
}

func (h fnv1a) bytes(p []byte) fnv1a {
	for _, b := range p {
		h = h.byte(b)
	}
	return h
}

// SurfaceGridSig digests a surface sweep grid: stride axis then
// working-set axis, length-prefixed so (strides, wss) pairs cannot
// collide by concatenation.
func SurfaceGridSig(strides []int, wss []units.Bytes) uint64 {
	h := fnvOffset.byte('S')
	h = h.u64(uint64(len(strides)))
	for _, s := range strides {
		h = h.u64(uint64(int64(s)))
	}
	h = h.u64(uint64(len(wss)))
	for _, ws := range wss {
		h = h.u64(uint64(int64(ws)))
	}
	return uint64(h)
}

// Checksum digests a snapshot file's bytes — the manifest's
// corruption check. A bit flip in stored bandwidth data decodes
// cleanly, so codec validation alone cannot catch it; the checksum
// does.
func Checksum(p []byte) uint64 { return uint64(fnvOffset.bytes(p)) }

// NewKey is the one key recipe: the machine and calibration hash of
// cal, the pattern string (Pattern.With), and the signature of the
// sweep grid.
func NewKey(cal machine.Calibration, pattern string, strides []int, wss []units.Bytes) Key {
	return Key{
		Machine: cal.Machine,
		Pattern: pattern,
		CalHash: cal.Hash(),
		GridSig: SurfaceGridSig(strides, wss),
	}
}

// filename renders the key as a store file name:
// <machine>_<pattern>_<calhash>_<gridsig> with the machine name
// sanitized. The manifest, not the name, is authoritative — the
// name exists so a store directory is legible to humans.
func (k Key) filename() string {
	return sanitize(k.Machine) + "_" + sanitize(k.Pattern) + "_" +
		hex16(k.CalHash) + "_" + hex16(k.GridSig)
}

// sanitize maps a free-form name onto [a-z0-9-]: bytes outside the
// set collapse to '-'.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

func hex16(v uint64) string { return fmt.Sprintf("%016x", v) }
