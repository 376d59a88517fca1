// Package probe is the simulator's observability subsystem: a
// hierarchical counter registry and a deterministic, ring-buffered
// event tracer, shared by every component of a machine model.
//
// Counters replace the ad-hoc per-package Stats structs: a component
// receives a Scope ("node0.l2") and registers named counters through
// it ("node0.l2.read_hits"). The registry owns the storage, so a
// machine can snapshot, diff, and reset every counter it contains in
// one place — which is what makes per-sweep-point attribution
// surfaces and the ColdReset reproducibility invariant cheap to
// uphold. Components keep small typed view structs (cache.Stats,
// dram.Stats, ...) computed from the handles, so existing callers
// and tests keep their comparable value types.
//
// The tracer records simulated-time spans and instants into a fixed
// ring. It is nil until enabled: emission sites guard with
//
//	if t := s.Tracer(); t != nil { t.Span(...) }
//
// so the disabled path costs one pointer load and a branch — no
// allocation, no formatting (the probeguard simlint analyzer enforces
// the guard). Event payloads are static strings and integers; all
// ordering is by ring position, which on a single simulated machine
// is deterministic, making traces byte-identical across runs and
// across sweep-pool worker counts.
package probe

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/units"
)

// Kind is the value type of a registered counter.
type Kind uint8

const (
	// KindCount is a plain event count.
	KindCount Kind = iota
	// KindTime is an accumulated simulated duration.
	KindTime
	// KindBytes is an accumulated byte volume.
	KindBytes
)

func (k Kind) String() string {
	switch k {
	case KindCount:
		return "count"
	case KindTime:
		return "time"
	case KindBytes:
		return "bytes"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// arenaChunk is the allocation granularity of counter storage. Chunks
// are allocated with this fixed capacity and never grown, so the
// pointers handed out in Counter handles stay valid for the life of
// the registry while counters registered together stay cache-adjacent.
const arenaChunk = 64

// slot is one registered counter. Exactly one of the pointers is
// non-nil, per kind.
type slot struct {
	name string
	kind Kind
	i    *int64
	t    *units.Time
	b    *units.Bytes
}

// Registry owns every counter of one machine (or one standalone
// component under test). Registration happens at construction time;
// the measurement phase only increments through handles and reads
// snapshots.
type Registry struct {
	slots []slot         //simlint:ignore statereset registration is construction-time wiring; Reset zeroes the pointees
	index map[string]int //simlint:ignore statereset registration is construction-time wiring; Reset zeroes the pointees

	// chunked arenas backing the slots (see arenaChunk)
	ints  [][]int64       //simlint:ignore statereset arena backing store; Reset zeroes values through slots
	times [][]units.Time  //simlint:ignore statereset arena backing store; Reset zeroes values through slots
	bytes [][]units.Bytes //simlint:ignore statereset arena backing store; Reset zeroes values through slots
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

func (r *Registry) allocInt() *int64 {
	if len(r.ints) == 0 || len(r.ints[len(r.ints)-1]) == arenaChunk {
		r.ints = append(r.ints, make([]int64, 0, arenaChunk))
	}
	c := &r.ints[len(r.ints)-1]
	*c = append(*c, 0)
	return &(*c)[len(*c)-1]
}

func (r *Registry) allocTime() *units.Time {
	if len(r.times) == 0 || len(r.times[len(r.times)-1]) == arenaChunk {
		r.times = append(r.times, make([]units.Time, 0, arenaChunk))
	}
	c := &r.times[len(r.times)-1]
	*c = append(*c, 0)
	return &(*c)[len(*c)-1]
}

func (r *Registry) allocBytes() *units.Bytes {
	if len(r.bytes) == 0 || len(r.bytes[len(r.bytes)-1]) == arenaChunk {
		r.bytes = append(r.bytes, make([]units.Bytes, 0, arenaChunk))
	}
	c := &r.bytes[len(r.bytes)-1]
	*c = append(*c, 0)
	return &(*c)[len(*c)-1]
}

// lookup finds or creates the slot for name with the given kind.
// Registration is idempotent: asking for an existing name returns the
// existing slot (machines that rebuild nodes, like the T3E stream
// ablation, re-register the same hierarchy). A kind mismatch is a
// programming error and panics.
func (r *Registry) lookup(name string, kind Kind) int {
	if idx, ok := r.index[name]; ok {
		if r.slots[idx].kind != kind {
			panic(fmt.Sprintf("probe: counter %q registered as %v, requested as %v",
				name, r.slots[idx].kind, kind))
		}
		return idx
	}
	s := slot{name: name, kind: kind}
	switch kind {
	case KindCount:
		s.i = r.allocInt()
	case KindTime:
		s.t = r.allocTime()
	case KindBytes:
		s.b = r.allocBytes()
	}
	r.slots = append(r.slots, s)
	r.index[name] = len(r.slots) - 1
	return len(r.slots) - 1
}

// Counter registers (or finds) the plain counter with the given full
// name and returns its handle.
func (r *Registry) Counter(name string) Counter {
	return Counter{p: r.slots[r.lookup(name, KindCount)].i}
}

// TimeCounter registers (or finds) the duration counter name.
func (r *Registry) TimeCounter(name string) TimeCounter {
	return TimeCounter{p: r.slots[r.lookup(name, KindTime)].t}
}

// ByteCounter registers (or finds) the byte-volume counter name.
func (r *Registry) ByteCounter(name string) ByteCounter {
	return ByteCounter{p: r.slots[r.lookup(name, KindBytes)].b}
}

// ResetAll zeroes every counter value, keeping registrations.
func (r *Registry) ResetAll() {
	for i := range r.slots {
		zeroSlot(&r.slots[i])
	}
}

// ResetPrefix zeroes every counter whose name is prefix itself or
// starts with prefix + ".".
func (r *Registry) ResetPrefix(prefix string) {
	dotted := prefix + "."
	for i := range r.slots {
		if r.slots[i].name == prefix || strings.HasPrefix(r.slots[i].name, dotted) {
			zeroSlot(&r.slots[i])
		}
	}
}

func zeroSlot(s *slot) {
	switch s.kind {
	case KindCount:
		*s.i = 0
	case KindTime:
		*s.t = 0
	case KindBytes:
		*s.b = 0
	}
}

// Value is one counter's name and current value in a Snapshot.
type Value struct {
	Name  string
	Kind  Kind
	Count int64
	Time  units.Time
	Bytes units.Bytes
}

// IsZero reports whether the counter holds its zero value.
func (v Value) IsZero() bool {
	return v.Count == 0 && v.Time == 0 && v.Bytes == 0
}

// Format renders the value deterministically: counts and bytes as
// decimal integers, durations as fixed-point nanoseconds.
func (v Value) Format() string {
	switch v.Kind {
	case KindTime:
		return strconv.FormatFloat(float64(v.Time), 'f', 2, 64) + "ns"
	case KindBytes:
		return strconv.FormatInt(int64(v.Bytes), 10) + "B"
	}
	return strconv.FormatInt(v.Count, 10)
}

// Snapshot is a point-in-time copy of a registry's counters, sorted
// by name.
type Snapshot []Value

// Snapshot copies every counter value, sorted by full name. The order
// is deterministic, so snapshots diff and print stably.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		v := Value{Name: s.name, Kind: s.kind}
		switch s.kind {
		case KindCount:
			v.Count = *s.i
		case KindTime:
			v.Time = *s.t
		case KindBytes:
			v.Bytes = *s.b
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Sub returns s - prev, matched by name. Counters absent from prev
// keep their value; counters only in prev are dropped (they no longer
// exist in s's registry).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	prevByName := make(map[string]Value, len(prev))
	for _, v := range prev {
		prevByName[v.Name] = v
	}
	out := make(Snapshot, 0, len(s))
	for _, v := range s {
		if p, ok := prevByName[v.Name]; ok {
			v.Count -= p.Count
			v.Time -= p.Time
			v.Bytes -= p.Bytes
		}
		out = append(out, v)
	}
	return out
}

// NonZero filters the snapshot to counters with non-zero values.
func (s Snapshot) NonZero() Snapshot {
	out := make(Snapshot, 0, len(s))
	for _, v := range s {
		if !v.IsZero() {
			out = append(out, v)
		}
	}
	return out
}

// Get returns the value named name and whether it exists.
func (s Snapshot) Get(name string) (Value, bool) {
	for _, v := range s {
		if v.Name == name {
			return v, true
		}
	}
	return Value{}, false
}

// Count returns the plain count named name, or 0.
func (s Snapshot) Count(name string) int64 {
	v, _ := s.Get(name)
	return v.Count
}

// Time returns the duration counter named name, or 0.
func (s Snapshot) Time(name string) units.Time {
	v, _ := s.Get(name)
	return v.Time
}

// Table renders the non-zero counters as an aligned two-column text
// table, one counter per line, sorted by name. The output is
// byte-deterministic.
func (s Snapshot) Table() string {
	nz := s.NonZero()
	width := 0
	for _, v := range nz {
		if len(v.Name) > width {
			width = len(v.Name)
		}
	}
	var b strings.Builder
	for _, v := range nz {
		b.WriteString(v.Name)
		for pad := width - len(v.Name); pad >= 0; pad-- {
			b.WriteByte(' ')
		}
		b.WriteString(v.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// Counter is a nil-safe handle on a plain count. The zero value is a
// detached no-op counter, so components built without a probe scope
// (zero Scope) still run; components built by a machine always get
// live handles.
type Counter struct{ p *int64 }

// Add adds d to the counter.
func (c Counter) Add(d int64) {
	if c.p != nil {
		*c.p += d
	}
}

// Inc adds 1 to the counter.
func (c Counter) Inc() {
	if c.p != nil {
		*c.p++
	}
}

// Get returns the current value (0 when detached).
func (c Counter) Get() int64 {
	if c.p == nil {
		return 0
	}
	return *c.p
}

// Reset zeroes the counter.
func (c Counter) Reset() {
	if c.p != nil {
		*c.p = 0
	}
}

// TimeCounter is a nil-safe handle on an accumulated duration.
type TimeCounter struct{ p *units.Time }

// Add accumulates d.
func (c TimeCounter) Add(d units.Time) {
	if c.p != nil {
		*c.p += d
	}
}

// Get returns the accumulated duration (0 when detached).
func (c TimeCounter) Get() units.Time {
	if c.p == nil {
		return 0
	}
	return *c.p
}

// Reset zeroes the counter.
func (c TimeCounter) Reset() {
	if c.p != nil {
		*c.p = 0
	}
}

// ByteCounter is a nil-safe handle on an accumulated byte volume.
type ByteCounter struct{ p *units.Bytes }

// Add accumulates n.
func (c ByteCounter) Add(n units.Bytes) {
	if c.p != nil {
		*c.p += n
	}
}

// Get returns the accumulated volume (0 when detached).
func (c ByteCounter) Get() units.Bytes {
	if c.p == nil {
		return 0
	}
	return *c.p
}

// Reset zeroes the counter.
func (c ByteCounter) Reset() {
	if c.p != nil {
		*c.p = 0
	}
}

// Probe bundles one machine's registry and (optional) tracer.
type Probe struct {
	reg    *Registry
	tracer *Tracer
}

// New builds a probe with an empty registry and tracing disabled.
func New() *Probe {
	return &Probe{reg: NewRegistry()}
}

// Registry returns the counter registry.
func (p *Probe) Registry() *Registry { return p.reg }

// Tracer returns the event tracer, nil while tracing is disabled.
// Callers must nil-check before emitting.
func (p *Probe) Tracer() *Tracer { return p.tracer }

// EnableTrace turns tracing on with a ring of the given event
// capacity (<= 0 selects DefaultTraceEvents). Enabling an already
// enabled probe with the same capacity keeps the ring.
func (p *Probe) EnableTrace(capacity int) {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	if p.tracer != nil && cap(p.tracer.buf) == capacity {
		return
	}
	p.tracer = NewTracer(capacity)
}

// Reset zeroes every counter and rewinds the trace ring: the state a
// machine ColdReset must restore.
func (p *Probe) Reset() {
	p.reg.ResetAll()
	if p.tracer != nil {
		p.tracer.Reset()
	}
}

// ResetTrace rewinds the trace ring only (between the priming pass
// and the measured pass, when counters are reset selectively).
func (p *Probe) ResetTrace() {
	if p.tracer != nil {
		p.tracer.Reset()
	}
}

// Scope returns a named registration scope rooted at name.
func (p *Probe) Scope(name string) Scope {
	return Scope{p: p, prefix: name}
}

// Scope is a named position in the counter hierarchy, handed to a
// component at construction. The zero Scope is valid and detached:
// registrations return no-op handles and Tracer returns nil.
type Scope struct {
	p      *Probe
	prefix string
	tid    int32
}

// Valid reports whether the scope is attached to a probe.
func (s Scope) Valid() bool { return s.p != nil }

// Name returns the scope's full prefix ("" when detached).
func (s Scope) Name() string { return s.prefix }

// TID returns the trace thread id events under this scope use.
func (s Scope) TID() int32 { return s.tid }

// WithTid returns a copy of the scope with the given trace thread id.
func (s Scope) WithTid(tid int32) Scope {
	return Scope{p: s.p, prefix: s.prefix, tid: tid}
}

// Child returns the sub-scope prefix + "." + name, inheriting the
// thread id.
func (s Scope) Child(name string) Scope {
	if s.p == nil {
		return Scope{}
	}
	return Scope{p: s.p, prefix: s.prefix + "." + name, tid: s.tid}
}

// Counter registers name under the scope and returns its handle.
func (s Scope) Counter(name string) Counter {
	if s.p == nil {
		return Counter{}
	}
	return s.p.reg.Counter(s.prefix + "." + name)
}

// TimeCounter registers the duration counter name under the scope.
func (s Scope) TimeCounter(name string) TimeCounter {
	if s.p == nil {
		return TimeCounter{}
	}
	return s.p.reg.TimeCounter(s.prefix + "." + name)
}

// ByteCounter registers the byte counter name under the scope.
func (s Scope) ByteCounter(name string) ByteCounter {
	if s.p == nil {
		return ByteCounter{}
	}
	return s.p.reg.ByteCounter(s.prefix + "." + name)
}

// Tracer returns the probe's tracer, nil when detached or disabled.
func (s Scope) Tracer() *Tracer {
	if s.p == nil {
		return nil
	}
	return s.p.tracer
}

// Reset zeroes every counter registered under the scope's prefix.
func (s Scope) Reset() {
	if s.p != nil {
		s.p.reg.ResetPrefix(s.prefix)
	}
}
