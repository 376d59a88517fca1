// Package stream models the streamed-access accelerators of the Cray
// nodes: the T3D's "external read-ahead logic that can be turned
// on/off at program load time" (§3.2) and the T3E's stream buffers
// ("the memory system includes support for memory streams", §3.3).
//
// A detector watches the line-miss address stream; once it sees
// enough consecutive sequential misses it declares the stream
// established, and the node model then charges the cheaper streaming
// initiation interval instead of the isolated DRAM access cost. The
// paper documents the effect: contiguous DRAM loads reach 430 MB/s on
// the T3E versus about 120 MB/s on an "earlier test-vehicle that
// disabled streaming support" (§5.5 footnote) — the Enabled switch
// reproduces that ablation.
package stream

import (
	"repro/internal/access"
	"repro/internal/probe"
	"repro/internal/units"
)

// Config describes a stream detection unit.
type Config struct {
	// Enabled gates the whole unit (the T3D's load-time switch, and
	// the T3E test-vehicle ablation).
	Enabled bool
	// Streams is the number of concurrent streams tracked (the T3E
	// tracked several; the T3D read-ahead effectively one or two).
	Streams int
	// Threshold is the number of consecutive sequential line misses
	// required before the stream is considered established.
	Threshold int
	// LineBytes is the granularity of the sequence detection.
	LineBytes units.Bytes
	// WriteInterrupts makes intervening DRAM writes knock the
	// detector back to training. The T3D's simple external
	// read-ahead loses its stream whenever the copy loop's store
	// drain hits memory — which is why the T3D's contiguous copy
	// (~100 MB/s) is far below its pure contiguous load rate (~195
	// MB/s, Figures 3 vs 10). The T3E's stream buffers track
	// several streams and are not disturbed.
	WriteInterrupts bool

	// Probe is the registration scope for the detector's counters; a
	// zero scope registers into a private probe.
	Probe probe.Scope
}

type tracked struct {
	next    access.Addr // expected next line address
	hits    int
	lastUse int64
}

// Detector recognizes sequential miss streams.
type Detector struct {
	cfg     Config
	streams []tracked
	tick    int64

	// established counts misses served in streaming mode; broken
	// counts misses that started a new candidate stream.
	established probe.Counter
	broken      probe.Counter
}

// Stats is the comparable view of the detector's counters.
type Stats struct {
	// Established counts misses served in streaming mode.
	Established int64
	// Broken counts misses that started a new candidate stream.
	Broken int64
}

// Stats returns a snapshot of the counters.
func (d *Detector) Stats() Stats {
	return Stats{Established: d.established.Get(), Broken: d.broken.Get()}
}

// New builds a detector; a zero-valued Config yields a disabled unit.
func New(cfg Config) *Detector {
	if cfg.Streams < 1 {
		cfg.Streams = 1
	}
	if cfg.Threshold < 1 {
		cfg.Threshold = 1
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 32
	}
	d := &Detector{cfg: cfg, streams: make([]tracked, cfg.Streams)}
	ps := cfg.Probe
	if !ps.Valid() {
		ps = probe.New().Scope("stream")
	}
	d.established = ps.Counter("established")
	d.broken = ps.Counter("broken")
	return d
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// OnMiss informs the detector of a line miss at lineAddr and reports
// whether this miss is served by an established stream (read-ahead
// data already on its way).
func (d *Detector) OnMiss(lineAddr access.Addr) bool {
	if !d.cfg.Enabled {
		return false
	}
	d.tick++
	line := access.Addr(d.cfg.LineBytes)

	// One pass continues an existing stream or, failing that, finds
	// the slot a new candidate stream replaces: the first with the
	// smallest lastUse (least recently used).
	victim, oldest := 0, d.streams[0].lastUse
	for i := range d.streams {
		s := &d.streams[i]
		if s.hits > 0 && lineAddr == s.next {
			s.next += line
			s.hits++
			s.lastUse = d.tick
			if s.hits > d.cfg.Threshold {
				d.established.Inc()
				return true
			}
			return false
		}
		if s.lastUse < oldest {
			victim, oldest = i, s.lastUse
		}
	}
	d.streams[victim] = tracked{next: lineAddr + line, hits: 1, lastUse: d.tick}
	d.broken.Inc()
	return false
}

// Interrupt knocks every tracked stream back to training without
// forgetting counters (an intervening non-stream access disturbed the
// prefetch).
func (d *Detector) Interrupt() {
	for i := range d.streams {
		d.streams[i].hits = 0
	}
}

// Reset forgets all tracked streams (between benchmark passes). The
// replacement clock restarts too: every slot's lastUse is zero again,
// and a warm tick would make victim choice depend on the previous run.
func (d *Detector) Reset() {
	for i := range d.streams {
		d.streams[i] = tracked{}
	}
	d.tick = 0
	d.established.Reset()
	d.broken.Reset()
}
