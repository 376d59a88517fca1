// Package sweepsafe_ok shows the sanctioned concurrent-ownership
// patterns: write-by-index through a worker-local variable, state
// passed in as a parameter, and goroutine-private storage.
// lint_test.go asserts it is clean.
package sweepsafe_ok

// Pool mimics internal/sweep.Pool's kernel-running shape.
type Pool struct{}

func (p *Pool) Run(kernel func(w int) error) error { return kernel(0) }

type state struct{ n int }

// fanOutByIndex: every goroutine owns slot i, handed in as a
// parameter; a goroutine-private slice may be appended to freely.
func fanOutByIndex(points []int) []int {
	results := make([]int, len(points))
	done := make(chan struct{})
	for i := range points {
		go func(i int) {
			var local []int
			local = append(local, points[i])
			results[i] = local[0]
			done <- struct{}{}
		}(i)
	}
	for range points {
		<-done
	}
	return results
}

// perWorkerParam: the shared struct arrives as a parameter, so the
// caller decided the partition.
func perWorkerParam(states []state, done chan struct{}) {
	for i := range states {
		go func(st *state) {
			st.n = 1
			done <- struct{}{}
		}(&states[i])
	}
}

// computedLocalIndex: the slot index is derived inside the body.
func computedLocalIndex(p *Pool, results []int, base int) {
	_ = p.Run(func(w int) error {
		slot := base + w
		results[slot] = w
		return nil
	})
}

// RunCaptured mirrors a run method that also returns per-point state.
func (p *Pool) RunCaptured(n int, kernel func(w int) error) ([]int, error) {
	return make([]int, n), kernel(0)
}

// capturedByIndex: a RunCaptured kernel writes only its own slot.
func capturedByIndex(p *Pool, results []int) {
	_, _ = p.RunCaptured(len(results), func(w int) error {
		results[w] = w
		return nil
	})
}
