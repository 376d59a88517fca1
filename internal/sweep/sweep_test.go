package sweep_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/probe"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

func t3e() machine.Machine { return machine.NewT3E(1) }

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := sweep.NewPool(t3e, workers)
		const n = 23
		hits := make([]int32, n)
		err := p.Run(n, func(m machine.Machine, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
		if p.Points() != n {
			t.Errorf("workers=%d: Points() = %d, want %d", workers, p.Points(), n)
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	want := errors.New("boom 3")
	for _, workers := range []int{1, 4} {
		p := sweep.NewPool(t3e, workers)
		err := p.Run(10, func(m machine.Machine, i int) error {
			if i == 7 {
				return errors.New("boom 7")
			}
			if i == 3 {
				return want
			}
			return nil
		})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, want)
		}
	}
}

func TestSeqRunsInlineInOrder(t *testing.T) {
	m := machine.NewT3E(1)
	p := sweep.Seq(m)
	if p.Workers() != 1 {
		t.Fatalf("Seq pool width = %d, want 1", p.Workers())
	}
	if p.Machine() != m {
		t.Fatal("Seq pool must expose the wrapped machine")
	}
	var order []int
	err := p.Run(5, func(got machine.Machine, i int) error {
		if got != m {
			t.Fatal("Seq kernel must receive the wrapped machine")
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order = %v", order)
		}
	}
}

func TestSeqFailsFast(t *testing.T) {
	p := sweep.Seq(machine.NewT3E(1))
	ran := 0
	err := p.Run(5, func(m machine.Machine, i int) error {
		ran++
		if i == 1 {
			return fmt.Errorf("stop at %d", i)
		}
		return nil
	})
	if err == nil || ran != 2 {
		t.Fatalf("ran %d kernels before err %v, want fail-fast after 2", ran, err)
	}
}

// TestParallelMatchesSequential is the determinism contract end to
// end: a real bandwidth sweep fanned over four workers must be
// bit-identical to the single-worker legacy path.
func TestParallelMatchesSequential(t *testing.T) {
	strides := []int{1, 2, 16, 31}
	measure := func(workers int) []units.BytesPerSec {
		p := sweep.NewPool(t3e, workers)
		bw := make([]units.BytesPerSec, len(strides))
		if err := p.Run(len(strides), func(m machine.Machine, i int) error {
			bw[i] = bench.LoadSum(m, 0, access.Pattern{
				Base: machine.LocalBase(0), WorkingSet: 64 * units.KB, Stride: strides[i]})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return bw
	}
	seq := measure(1)
	par := measure(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("stride %d: sequential %v != parallel %v", strides[i], seq[i], par[i])
		}
	}
}

// TestRunHandsOutLastIndexFirst pins the longest-first dispatch of a
// wide pool: each worker's first kernel call waits until every worker
// has taken a point, so the indices seen first are exactly the first
// ones handed out, and they must be the top of the range.
func TestRunHandsOutLastIndexFirst(t *testing.T) {
	for _, workers := range []int{2, 3} {
		const n = 9
		p := sweep.NewPool(t3e, workers)
		var mu sync.Mutex
		var first []int
		var started sync.WaitGroup
		started.Add(workers)
		err := p.Run(n, func(m machine.Machine, i int) error {
			mu.Lock()
			isFirst := len(first) < workers
			if isFirst {
				first = append(first, i)
			}
			mu.Unlock()
			if isFirst {
				started.Done()
				started.Wait()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(first)))
		for k, i := range first {
			if i != n-1-k {
				t.Fatalf("workers=%d: first indices handed out %v, want %d down to %d",
					workers, first, n-1, n-workers)
			}
		}
	}
}

// TestArtifactsMatchAcrossWidths is the determinism contract under
// longest-first dispatch: surfaces, curves and per-point probe
// captures must be byte-identical at one, two and four workers.
func TestArtifactsMatchAcrossWidths(t *testing.T) {
	strides := []int{1, 3, 16}
	wss := []units.Bytes{4 * units.KB, 64 * units.KB, 512 * units.KB}
	mk := func() machine.Machine {
		m := machine.NewT3E(4)
		m.Probe().EnableTrace(0)
		return m
	}
	run := func(workers int) string {
		var b strings.Builder
		p := sweep.NewPool(mk, workers)
		b.WriteString(bench.LoadSurface(p, 0, strides, wss).CSV())
		s, err := bench.TransferSurface(p, 0, 1, machine.Deposit, strides, wss)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s.CSV())
		c, err := bench.TransferCurve(p, 0, 1, 256*units.KB, strides, machine.Fetch, false, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*surface.Curve{bench.CopyCurve(p, 0, 256*units.KB, strides, true), c} {
			data, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		caps, err := p.RunCaptured(len(wss), func(m machine.Machine, i int) error {
			bench.StoreConst(m, 0, access.Pattern{Base: machine.LocalBase(0), WorkingSet: wss[i], Stride: 2})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range caps {
			b.WriteString(c.Counters.NonZero().Table())
			if err := probe.WriteTrace(&b, c.Events); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	seq := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != seq {
			t.Errorf("artifacts at %d workers differ from one worker", workers)
		}
	}
}
