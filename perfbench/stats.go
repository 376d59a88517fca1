package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// tailCandidates are the percentiles tail reports, highest first. The
// list stops at 99 because the end-to-end metric is named p99.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// rankAt returns the 1-based nearest rank of percentile p in n sorted
// samples.
func rankAt(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// tail reports the highest percentile of xs that has at least ten
// samples beyond it, and its value. With fewer than twenty samples no
// percentile qualifies and tail reports the maximum as percentile 100.
// xs is sorted in place.
func tail(xs []float64) (pct, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	n := len(xs)
	for _, p := range tailCandidates {
		k := rankAt(p, n)
		if n-k >= 10 {
			return p, xs[k-1]
		}
	}
	return 100, xs[n-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// maxRSSMB returns the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux reports ru_maxrss in kilobytes.
	return float64(ru.Maxrss) / 1024
}
