package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/access"
)

// twoPassOnMiss is OnMiss as it was written before the single-pass
// search: one loop looks for a stream to continue, a second finds the
// least recently used slot. It is the oracle the single pass must
// match slot for slot.
func twoPassOnMiss(d *Detector, lineAddr access.Addr) bool {
	if !d.cfg.Enabled {
		return false
	}
	d.tick++
	line := access.Addr(d.cfg.LineBytes)
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
	}
	victim := 0
	for i := range d.streams {
		if d.streams[i].lastUse < d.streams[victim].lastUse {
			victim = i
		}
	}
	d.streams[victim] = tracked{next: lineAddr + line, hits: 1, lastUse: d.tick}
	d.broken.Inc()
	return false
}

// TestOnMissMatchesTwoPass drives the single-pass OnMiss and the
// two-pass oracle with the same seeded miss streams — interleaved
// sequential runs, repeats and jumps, with Interrupt calls mixed in —
// on 1, 4 and 8 slots and thresholds 1 to 3. Each stream starts right
// after Reset, where every slot's lastUse ties at zero. Every return
// value, every slot, the clock and both counters must match after
// every call.
func TestOnMissMatchesTwoPass(t *testing.T) {
	for _, slots := range []int{1, 4, 8} {
		for threshold := 1; threshold <= 3; threshold++ {
			t.Run(fmt.Sprintf("slots=%d/threshold=%d", slots, threshold), func(t *testing.T) {
				cfg := Config{Enabled: true, Streams: slots, Threshold: threshold, LineBytes: 64}
				got, want := New(cfg), New(cfg)
				rng := rand.New(rand.NewSource(int64(slots*10 + threshold)))
				for round := 0; round < 20; round++ {
					got.Reset()
					want.Reset()
					// A few concurrent sequential walkers, so streams
					// establish, collide and get evicted.
					walkers := make([]access.Addr, 1+rng.Intn(slots+2))
					for i := range walkers {
						walkers[i] = access.Addr(rng.Intn(64)) * 4096
					}
					for op := 0; op < 300; op++ {
						var a access.Addr
						switch k := rng.Intn(20); {
						case k == 0:
							got.Interrupt()
							want.Interrupt()
							compareDetectors(t, op, got, want)
							continue
						case k < 3:
							// A jump: a line no walker is near.
							a = access.Addr(rng.Intn(1<<20)) * 64
						case k < 5:
							// A repeat of a walker's last line.
							w := rng.Intn(len(walkers))
							a = walkers[w] - 64
						default:
							w := rng.Intn(len(walkers))
							a = walkers[w]
							walkers[w] += 64
						}
						if g, w := got.OnMiss(a), twoPassOnMiss(want, a); g != w {
							t.Fatalf("op %d miss %#x: streaming %v, two-pass %v", op, a, g, w)
						}
						compareDetectors(t, op, got, want)
					}
				}
			})
		}
	}
}

func compareDetectors(t *testing.T, op int, got, want *Detector) {
	t.Helper()
	if !slices.Equal(got.streams, want.streams) {
		t.Fatalf("op %d: slots %+v, want %+v", op, got.streams, want.streams)
	}
	if got.tick != want.tick || got.Stats() != want.Stats() {
		t.Fatalf("op %d: tick %d stats %+v, want tick %d stats %+v",
			op, got.tick, got.Stats(), want.tick, want.Stats())
	}
}

// TestResetMatchesFresh pins Reset to a new detector: after a used
// detector resets, its slots, clock and counters are a fresh one's, and
// the two answer the same misses with the same slots ever after.
func TestResetMatchesFresh(t *testing.T) {
	cfg := Config{Enabled: true, Streams: 4, Threshold: 2, LineBytes: 64}
	misses := func(d *Detector, fresh *Detector) {
		for i := 0; i < 200; i++ {
			a := access.Addr(i%3)<<20 + access.Addr(i/3)*64
			if i%17 == 0 {
				a += 1 << 30
			}
			got := d.OnMiss(a)
			if fresh != nil {
				if want := fresh.OnMiss(a); got != want {
					t.Fatalf("miss %d: streaming %v after reset, %v fresh", i, got, want)
				}
				compareDetectors(t, i, d, fresh)
			}
		}
	}
	used := New(cfg)
	misses(used, nil)
	used.Reset()
	fresh := New(cfg)
	compareDetectors(t, -1, used, fresh)
	misses(used, fresh)
}
