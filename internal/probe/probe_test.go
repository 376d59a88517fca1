package probe

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/units"
)

func TestRegistryHandlesAndSnapshot(t *testing.T) {
	p := New()
	s := p.Scope("node0")
	l2 := s.Child("l2")

	hits := l2.Counter("read_hits")
	stall := s.TimeCounter("load_stall")
	vol := l2.ByteCounter("bytes")

	hits.Add(3)
	hits.Inc()
	stall.Add(units.Time(12.5))
	vol.Add(64)

	snap := p.Registry().Snapshot()
	if got := snap.Count("node0.l2.read_hits"); got != 4 {
		t.Errorf("read_hits = %d, want 4", got)
	}
	if got := snap.Time("node0.load_stall"); got != 12.5 {
		t.Errorf("load_stall = %v, want 12.5", got)
	}
	v, ok := snap.Get("node0.l2.bytes")
	if !ok || v.Bytes != 64 {
		t.Errorf("bytes = %v (ok=%v), want 64", v.Bytes, ok)
	}

	// Snapshot order is sorted by name.
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	p := New()
	a := p.Scope("node0").Counter("loads")
	a.Add(7)
	// Re-registering the same name (a rebuilt node) must alias the
	// same storage, not shadow it.
	b := p.Scope("node0").Counter("loads")
	if b.Get() != 7 {
		t.Errorf("re-registered counter reads %d, want 7", b.Get())
	}
	b.Add(1)
	if a.Get() != 8 {
		t.Errorf("original handle reads %d, want 8", a.Get())
	}
	if n := len(p.Registry().Snapshot()); n != 1 {
		t.Errorf("registry has %d slots, want 1", n)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering an existing name with a different kind did not panic")
		}
	}()
	p := New()
	p.Scope("x").Counter("v")
	p.Scope("x").TimeCounter("v")
}

func TestDetachedHandlesAreNoOps(t *testing.T) {
	var s Scope
	if s.Valid() {
		t.Error("zero Scope reports Valid")
	}
	c := s.Counter("x")
	c.Add(5)
	if c.Get() != 0 {
		t.Errorf("detached counter = %d, want 0", c.Get())
	}
	tc := s.TimeCounter("t")
	tc.Add(1)
	tc.Reset()
	bc := s.ByteCounter("b")
	bc.Add(1)
	bc.Reset()
	if s.Tracer() != nil {
		t.Error("detached scope has a tracer")
	}
	s.Reset() // must not panic
	if s.Child("y").Valid() {
		t.Error("child of zero Scope reports Valid")
	}
}

func TestResetPrefix(t *testing.T) {
	p := New()
	a := p.Scope("node0").Counter("loads")
	b := p.Scope("node1").Counter("loads")
	c := p.Scope("node0").Child("l1").Counter("hits")
	a.Add(1)
	b.Add(2)
	c.Add(3)

	p.Scope("node0").Reset()
	if a.Get() != 0 || c.Get() != 0 {
		t.Errorf("node0 counters = %d,%d after prefix reset, want 0,0", a.Get(), c.Get())
	}
	if b.Get() != 2 {
		t.Errorf("node1 counter = %d after node0 reset, want 2", b.Get())
	}
	// "node0" must not match "node01".
	d := p.Scope("node01").Counter("loads")
	d.Add(9)
	p.Scope("node0").Reset()
	if d.Get() != 9 {
		t.Errorf("node01 counter = %d after node0 prefix reset, want 9", d.Get())
	}
}

func TestSnapshotSubAndTable(t *testing.T) {
	p := New()
	a := p.Scope("n").Counter("x")
	b := p.Scope("n").TimeCounter("y")
	a.Add(10)
	b.Add(5)
	before := p.Registry().Snapshot()
	a.Add(4)
	diff := p.Registry().Snapshot().Sub(before)
	if got := diff.Count("n.x"); got != 4 {
		t.Errorf("diff n.x = %d, want 4", got)
	}
	if got := diff.Time("n.y"); got != 0 {
		t.Errorf("diff n.y = %v, want 0", got)
	}

	table := p.Registry().Snapshot().Table()
	if !strings.Contains(table, "n.x") || !strings.Contains(table, "14") {
		t.Errorf("table missing n.x=14:\n%s", table)
	}
	if strings.Contains(table, "n.z") {
		t.Errorf("table contains unregistered counter:\n%s", table)
	}
}

func TestTracerRingAndReset(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Instant("e", "c", 0, units.Time(i))
	}
	if tr.Len() != 4 || tr.Emitted() != 6 || tr.Dropped() != 2 {
		t.Fatalf("len=%d emitted=%d dropped=%d, want 4/6/2", tr.Len(), tr.Emitted(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := units.Time(i + 2); ev.TS != want {
			t.Errorf("event %d TS = %v, want %v (oldest-first after wrap)", i, ev.TS, want)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Emitted() != 0 {
		t.Errorf("after Reset: len=%d emitted=%d, want 0/0", tr.Len(), tr.Emitted())
	}
	tr.Span("s", "c", 1, 10, 15)
	evs = tr.Events()
	if len(evs) != 1 || evs[0].Dur != 5 || evs[0].Kind != SpanEvent {
		t.Errorf("after reset+span: %+v", evs)
	}
}

func TestProbeResetAndCapture(t *testing.T) {
	p := New()
	c := p.Scope("n").Counter("x")
	c.Add(3)
	p.EnableTrace(8)
	p.Tracer().Instant("e", "c", 0, 1)

	cap1 := p.Capture()
	if cap1.Counters.Count("n.x") != 3 || len(cap1.Events) != 1 || cap1.Emitted != 1 {
		t.Errorf("capture = %+v", cap1)
	}

	p.Reset()
	cap2 := p.Capture()
	if cap2.Counters.Count("n.x") != 0 || len(cap2.Events) != 0 {
		t.Errorf("capture after Reset = %+v", cap2)
	}

	// ResetTrace keeps counters.
	c.Add(2)
	p.Tracer().Instant("e", "c", 0, 2)
	p.ResetTrace()
	cap3 := p.Capture()
	if cap3.Counters.Count("n.x") != 2 || len(cap3.Events) != 0 {
		t.Errorf("capture after ResetTrace = %+v", cap3)
	}
}

func TestWriteTraceJSON(t *testing.T) {
	var b strings.Builder
	events := []Event{
		{Name: "dram.fill", Cat: "mem", Kind: SpanEvent, Tid: 0, TS: 100, Dur: 426},
		{Name: "bank.conflict", Cat: "mem", Kind: InstantEvent, Tid: 1, TS: 526.5,
			ArgName: "wait_ns", Arg: 60},
	}
	if err := WriteTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wants := []string{
		`"displayTimeUnit":"ns"`,
		`{"name":"dram.fill","cat":"mem","ph":"X","ts":0.100000,"dur":0.426000,"pid":0,"tid":0}`,
		`{"name":"bank.conflict","cat":"mem","ph":"i","s":"t","ts":0.526500,"pid":0,"tid":1,"args":{"wait_ns":60}}`,
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("trace JSON missing %q:\n%s", w, out)
		}
	}
	// Byte determinism: the same events render identically.
	var b2 strings.Builder
	if err := WriteTrace(&b2, events); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("WriteTrace output differs across identical calls")
	}
}

func TestHandleResetsZeroTheSlot(t *testing.T) {
	// Each handle kind's Reset must actually zero the registry slot —
	// a dropped reset (the dropreset mutation class) leaks one sweep's
	// counts into the next and corrupts attribution.
	p := New()
	s := p.Scope("n")
	c := s.Counter("ops")
	tc := s.TimeCounter("stall")
	bc := s.ByteCounter("vol")
	c.Add(7)
	tc.Add(units.Time(9))
	bc.Add(units.Bytes(512))
	c.Reset()
	tc.Reset()
	bc.Reset()
	if got := c.Get(); got != 0 {
		t.Errorf("Counter.Reset left %d", got)
	}
	if got := tc.Get(); got != 0 {
		t.Errorf("TimeCounter.Reset left %v", got)
	}
	if got := bc.Get(); got != 0 {
		t.Errorf("ByteCounter.Reset left %v", got)
	}
	// Detached handles must stay no-ops.
	var dc Counter
	var dtc TimeCounter
	var dbc ByteCounter
	dc.Reset()
	dtc.Reset()
	dbc.Reset()
}

func TestSpanArgRecordsDurationAndPayload(t *testing.T) {
	tr := NewTracer(4)
	tr.SpanArg("xfer", "net", 2, 100, 164, "bytes", 4096)
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != SpanEvent || ev.TS != 100 || ev.Dur != 64 {
		t.Errorf("span = kind %v ts %v dur %v, want SpanEvent/100/64", ev.Kind, ev.TS, ev.Dur)
	}
	if ev.ArgName != "bytes" || ev.Arg != 4096 {
		t.Errorf("payload = %s=%d, want bytes=4096", ev.ArgName, ev.Arg)
	}
	tr.InstantArg("mark", "net", 2, 200, "count", 3)
	evs = tr.Events()
	if len(evs) != 2 || evs[1].Kind != InstantEvent || evs[1].Arg != 3 {
		t.Errorf("instant-arg event: %+v", evs)
	}
}

// TestLockedRegistryConcurrentTallies: eight goroutines Add and Inc
// known amounts; Get and Snapshot must read back every one.
func TestLockedRegistryConcurrentTallies(t *testing.T) {
	const workers, rounds = 8, 200
	l := NewLockedRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l.Add("serve.bytes", int64(w+1))
				l.Inc("serve.requests")
			}
		}(w)
	}
	wg.Wait()
	wantBytes := int64(rounds * workers * (workers + 1) / 2)
	wantReqs := int64(rounds * workers)
	if got := l.Get("serve.bytes"); got != wantBytes {
		t.Errorf("Get(serve.bytes) = %d, want %d", got, wantBytes)
	}
	if got := l.Get("serve.requests"); got != wantReqs {
		t.Errorf("Get(serve.requests) = %d, want %d", got, wantReqs)
	}
	snap := l.Snapshot()
	if got := snap.Count("serve.bytes"); got != wantBytes {
		t.Errorf("Snapshot serve.bytes = %d, want %d", got, wantBytes)
	}
	if got := snap.Count("serve.requests"); got != wantReqs {
		t.Errorf("Snapshot serve.requests = %d, want %d", got, wantReqs)
	}
}
