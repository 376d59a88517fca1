// Package sweepsafe_bad writes captured shared state from concurrent
// bodies in every way the sweepsafe analyzer knows about.
package sweepsafe_bad

// Pool mimics internal/sweep.Pool's kernel-running shape.
type Pool struct{}

// Run calls kernel once per worker; the fixture only needs the
// signature, not the concurrency.
func (p *Pool) Run(kernel func(w int) error) error { return kernel(0) }

type state struct{ n int }

func fanOutAppend(points []int) []int {
	var results []int
	done := make(chan struct{})
	for i := range points {
		go func(i int) {
			results = append(results, points[i]) // want:sweepsafe append to "results" captured from the spawning goroutine
			done <- struct{}{}
		}(i)
	}
	for range points {
		<-done
	}
	return results
}

func sharedCounter(points []int) int {
	total := 0
	done := make(chan struct{})
	for range points {
		go func() {
			total++ // want:sweepsafe writes captured variable "total"
			done <- struct{}{}
		}()
	}
	for range points {
		<-done
	}
	return total
}

func fixedSlot(results []int, done chan struct{}) {
	go func() {
		results[0] = 1 // want:sweepsafe index not derived from a worker-local variable
		done <- struct{}{}
	}()
}

func sharedStruct(st *state, done chan struct{}) {
	go func() {
		st.n = 1 // want:sweepsafe writes field n of captured "st"
		done <- struct{}{}
	}()
}

func poolShared(p *Pool, points []int) int {
	sum := 0
	_ = p.Run(func(w int) error {
		sum += points[w] // want:sweepsafe worker-pool kernel writes captured variable "sum"
		return nil
	})
	return sum
}

// RunAt mirrors a subset-run method: any kernel a pool method takes is
// a worker-pool kernel, whatever the method is called.
func (p *Pool) RunAt(idx []int, kernel func(w int) error) error { return kernel(idx[0]) }

// RunCaptured mirrors a run method that also returns per-point state.
func (p *Pool) RunCaptured(n int, kernel func(w int) error) ([]int, error) {
	return make([]int, n), kernel(0)
}

func poolRunAtAppend(p *Pool, idx, points []int) []int {
	var results []int
	_ = p.RunAt(idx, func(w int) error {
		results = append(results, points[w]) // want:sweepsafe append to "results" captured from the spawning goroutine
		return nil
	})
	return results
}

func poolRunCapturedShared(p *Pool, points []int) int {
	sum := 0
	_, _ = p.RunCaptured(len(points), func(w int) error {
		sum += points[w] // want:sweepsafe worker-pool kernel writes captured variable "sum"
		return nil
	})
	return sum
}
