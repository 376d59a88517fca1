package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestResourceIdle(t *testing.T) {
	var r Resource
	start := r.Acquire(100, 10)
	if start != 100 {
		t.Errorf("idle resource should start immediately: got %v", start)
	}
	if got := r.Peek(105); got != 110 {
		t.Errorf("Peek during occupancy = %v, want 110", got)
	}
}

func TestResourceBackToBack(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)
	start := r.Acquire(0, 10)
	if start != 10 {
		t.Errorf("second request should queue: start=%v, want 10", start)
	}
	start = r.Acquire(50, 10)
	if start != 50 {
		t.Errorf("request after idle gap should start at now: %v", start)
	}
}

func TestResourceThroughput(t *testing.T) {
	// Saturating a resource with interval I yields exactly 1/I ops/ns.
	var r Resource
	var last units.Time
	const n = 1000
	for i := 0; i < n; i++ {
		start := r.Acquire(0, 5)
		last = start + 5
	}
	if last != n*5 {
		t.Errorf("saturated completion = %v, want %v", last, n*5)
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Acquire(0, 1000)
	r.Reset()
	if got := r.Peek(0); got != 0 {
		t.Errorf("after Reset, Peek = %v, want 0", got)
	}
}

func TestResourceMonotonic(t *testing.T) {
	// Property: successive acquisitions never start before the
	// previous one's completion, regardless of request times.
	f := func(times []uint16) bool {
		var r Resource
		var prevEnd units.Time
		for _, tt := range times {
			start := r.Acquire(units.Time(tt), 3)
			if start < prevEnd {
				return false
			}
			prevEnd = start + 3
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowHidesShortLatency(t *testing.T) {
	w := Window{Depth: 8}
	// Latency of 20ns, 8 slots of 3ns = 24ns hidden: no stall.
	if s := w.StallHidden(0, 20, w.Hide(3)); s != 0 {
		t.Errorf("short latency should be hidden, stall=%v", s)
	}
	// Latency of 40ns: 16ns exposed.
	if s := w.StallHidden(0, 40, w.Hide(3)); s != 16 {
		t.Errorf("stall = %v, want 16", s)
	}
}

func TestWindowZeroDepth(t *testing.T) {
	w := Window{Depth: 0}
	if s := w.StallHidden(10, 25, w.Hide(3)); s != 15 {
		t.Errorf("zero-depth window exposes full latency: %v, want 15", s)
	}
}

func TestWindowNeverNegative(t *testing.T) {
	f := func(issue, ready uint16, slot uint8) bool {
		w := Window{Depth: 8}
		return w.StallHidden(units.Time(issue), units.Time(ready), w.Hide(units.Time(slot))) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.Advance(-5) // ignored
	if c.Now() != 10 {
		t.Errorf("Now = %v, want 10", c.Now())
	}
	c.AdvanceTo(8) // in the past, ignored
	if c.Now() != 10 {
		t.Errorf("AdvanceTo past should not rewind: %v", c.Now())
	}
	c.AdvanceTo(25)
	if c.Now() != 25 {
		t.Errorf("AdvanceTo = %v, want 25", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Reset should zero the clock")
	}
}
