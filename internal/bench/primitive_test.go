package bench

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/machine"
	"repro/internal/units"
)

// primitiveCase is one hot-primitive benchmark case: a machine and a
// load pattern on its node 0.
type primitiveCase struct {
	name string
	mk   func() machine.Machine
	p    access.Pattern
}

// primitiveCases crosses the three machines with a unit and a
// line-sized stride and with a working set that fits every machine's
// caches and one that fits none, so the cases cover the hit-bound and
// the miss-bound ends of the prime and the measured pass.
func primitiveCases() []primitiveCase {
	machines := []struct {
		name string
		mk   func() machine.Machine
	}{
		{"8400", func() machine.Machine { return machine.NewDEC8400(4) }},
		{"t3d", func() machine.Machine { return machine.NewT3D(4) }},
		{"t3e", func() machine.Machine { return machine.NewT3E(4) }},
	}
	var cases []primitiveCase
	for _, mc := range machines {
		for _, stride := range []int{1, 16} {
			for _, ws := range []units.Bytes{128 * units.KB, 8 * units.MB} {
				cases = append(cases, primitiveCase{
					name: fmt.Sprintf("%s/s%d/%v", mc.name, stride, ws),
					mk:   mc.mk,
					p:    access.Pattern{Base: machine.LocalBase(0), WorkingSet: ws, Stride: stride},
				})
			}
		}
	}
	return cases
}

// BenchmarkPrime times the tag-only load prime from a cold machine
// and reports the host cost of one primed access.
func BenchmarkPrime(b *testing.B) { benchLoadPass(b, false) }

// BenchmarkMeasure times the measured load pass that follows a prime
// from a cold machine and reports the host cost of one measured
// access.
func BenchmarkMeasure(b *testing.B) { benchLoadPass(b, true) }

// benchLoadPass times one pass of a load cell per iteration, the
// prime or (measured) the measured pass, on every primitive case.
func benchLoadPass(b *testing.B, measured bool) {
	for _, pc := range primitiveCases() {
		b.Run(pc.name, func(b *testing.B) {
			m := pc.mk()
			n := m.Node(0)
			var accesses int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.ColdReset()
				if measured {
					prime(n, pc.p)
					m.ResetTiming()
					b.StartTimer()
					accesses += measure(n, pc.p)
				} else {
					b.StartTimer()
					accesses += prime(n, pc.p)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}

// BenchmarkTransfer times one remote transfer cell from a cold
// machine — the 8400's pull and the Crays' fetch and deposit, at unit
// and line-sized stride over 1 MB, between node 0 and its preferred
// partner as the transfer surfaces run it — and reports the host cost
// of one word of the working set.
func BenchmarkTransfer(b *testing.B) {
	cases := []struct {
		name string
		mk   func() machine.Machine
		mode machine.Mode
	}{
		{"8400/pull", func() machine.Machine { return machine.NewDEC8400(4) }, machine.Fetch},
		{"t3d/fetch", func() machine.Machine { return machine.NewT3D(4) }, machine.Fetch},
		{"t3d/deposit", func() machine.Machine { return machine.NewT3D(4) }, machine.Deposit},
		{"t3e/fetch", func() machine.Machine { return machine.NewT3E(4) }, machine.Fetch},
		{"t3e/deposit", func() machine.Machine { return machine.NewT3E(4) }, machine.Deposit},
	}
	const ws = units.MB
	for _, tc := range cases {
		for _, stride := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/s%d/%v", tc.name, stride, ws), func(b *testing.B) {
				m := tc.mk()
				dst := machine.PreferredPartner(m)
				cp := access.CopyPattern{SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(dst),
					WorkingSet: ws, LoadStride: 1, StoreStride: 1}
				if tc.mode == machine.Deposit {
					cp.StoreStride = stride
				} else {
					cp.LoadStride = stride
				}
				var words int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m.ColdReset()
					b.StartTimer()
					if _, err := Transfer(m, 0, dst, cp, machine.Options{Mode: tc.mode}); err != nil {
						b.Fatal(err)
					}
					words += int64(ws.Words())
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word")
			})
		}
	}
}
