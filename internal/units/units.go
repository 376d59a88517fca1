// Package units defines the physical quantities used throughout the
// simulator: simulated time in nanoseconds, byte sizes, clock rates,
// and bandwidths. All simulator components exchange these types so
// that a mixed-up unit is a type error, not a silent miscalibration.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is a point (or span) of simulated time in nanoseconds.
// Simulated time is completely decoupled from host wall-clock time;
// the simulator is deterministic.
type Time float64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Seconds converts a simulated duration to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String renders a time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/1e3)
	default:
		return fmt.Sprintf("%.2fns", float64(t))
	}
}

// Scale stretches a duration by a dimensionless factor (receive-side
// occupancy factors, contention multipliers). It exists so callers
// never need to launder a Time through float64.
func (t Time) Scale(f float64) Time { return Time(float64(t) * f) }

// Bytes is a data size in bytes.
type Bytes int64

// Common sizes. The paper quotes working sets in powers of two
// ("0.5k" through "128M") of bytes.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30

	// Word is the transfer granularity of every benchmark in the
	// paper: a 64-bit double word.
	Word Bytes = 8
)

// Scale multiplies the size by a dimensionless factor.
func (b Bytes) Scale(f float64) Bytes { return Bytes(float64(b) * f) }

// GCD returns the greatest common divisor of two sizes — the folding
// granularity of a strided walk over a power-of-two address map.
func (b Bytes) GCD(o Bytes) Bytes {
	for o != 0 {
		b, o = o, b%o
	}
	return b
}

// Words returns the number of 64-bit words in the size.
func (b Bytes) Words() int64 { return int64(b) / int64(Word) }

// CeilWords returns the number of 64-bit words needed to hold the
// size, rounding partial words up.
func (b Bytes) CeilWords() int64 { return int64((b + Word - 1) / Word) }

// ByteCost returns the cost of processing n bytes at a per-byte cost
// of t. It is the unit-safe spelling of per-byte occupancy math:
// time/byte x bytes = time.
func (t Time) ByteCost(n Bytes) Time { return t * Time(n) }

// PerByte spreads a total cost t over n bytes, returning the cost per
// byte: time / bytes = time/byte. n must be positive.
func (t Time) PerByte(n Bytes) Time { return t / Time(n) }

// String renders a size the way the paper's axes label working sets
// (".5k", "4k", "1M", ...).
func (b Bytes) String() string {
	switch {
	case b >= GB && b%GB == 0:
		return fmt.Sprintf("%dG", b/GB)
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dM", b/MB)
	case b >= KB && b%KB == 0:
		return fmt.Sprintf("%dk", b/KB)
	case b == KB/2:
		return ".5k"
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// ParseBytes parses a human-readable size: a plain byte count
// ("8388608") or a decimal number with a case-insensitive K/M/G
// power-of-two suffix ("8M", "512k", ".5k"), optionally followed by
// "B" ("8MB") or spelled IEC-style ("8MiB", "512kib"). It inverts
// Bytes.String for every size the paper's axes use and is forgiving
// about case so HTTP payloads and flag values don't have to be.
func ParseBytes(s string) (Bytes, error) {
	t := strings.TrimSpace(s)
	u := strings.ToUpper(t)
	if strings.HasSuffix(u, "B") {
		u = u[:len(u)-1]
	}
	// IEC spellings: the "I" of "KiB"/"MiB"/"GiB" survives the "B"
	// strip; drop it only when a binary-prefix letter precedes it, so
	// a stray trailing "i" is still a parse error.
	if n := len(u); n >= 2 && u[n-1] == 'I' {
		switch u[n-2] {
		case 'K', 'M', 'G':
			u = u[:n-1]
		}
	}
	mult := Bytes(1)
	if n := len(u); n > 0 {
		switch u[n-1] {
		case 'K':
			mult, u = KB, u[:n-1]
		case 'M':
			mult, u = MB, u[:n-1]
		case 'G':
			mult, u = GB, u[:n-1]
		}
	}
	if u == "" {
		return 0, fmt.Errorf("units: invalid size %q", s)
	}
	// An integer count is parsed exactly: float64 would round counts
	// above 2^53.
	if n, err := strconv.ParseInt(u, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("units: invalid size %q", s)
		}
		if n > math.MaxInt64/int64(mult) {
			return 0, fmt.Errorf("units: size %q is out of range", s)
		}
		return Bytes(n) * mult, nil
	}
	v, err := strconv.ParseFloat(u, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("units: invalid size %q", s)
	}
	b := v * float64(mult)
	// NaN fails every comparison, so it falls through to the
	// whole-number check; +Inf and anything at or past 2^63 would
	// wrap negative in the int64 conversion.
	if b >= 1<<63 {
		return 0, fmt.Errorf("units: size %q is out of range", s)
	}
	if b != math.Trunc(b) {
		return 0, fmt.Errorf("units: size %q is not a whole number of bytes", s)
	}
	return Bytes(b), nil
}

// BytesPerSec is a bandwidth. The paper reports MByte/s.
type BytesPerSec float64

// MBps constructs a bandwidth from a MByte/s figure as printed in the
// paper (1 MByte = 1e6 bytes, the paper's convention for rates).
func MBps(v float64) BytesPerSec { return BytesPerSec(v * 1e6) }

// MBps reports the bandwidth in MByte/s (1e6 bytes per second).
func (b BytesPerSec) MBps() float64 { return float64(b) / 1e6 }

// String renders the bandwidth in MByte/s.
func (b BytesPerSec) String() string { return fmt.Sprintf("%.1fMB/s", b.MBps()) }

// BW computes the bandwidth achieved moving n bytes in d simulated time.
// It returns 0 for non-positive durations.
func BW(n Bytes, d Time) BytesPerSec {
	if d <= 0 {
		return 0
	}
	return BytesPerSec(float64(n) / d.Seconds())
}

// TimeFor returns the time needed to move n bytes at bandwidth b.
func TimeFor(n Bytes, b BytesPerSec) Time {
	if b <= 0 {
		return 0
	}
	return Time(float64(n) / float64(b) * 1e9)
}

// Clock describes a processor or bus clock.
type Clock struct {
	MHz float64
}

// Cycle returns the duration of one clock cycle.
func (c Clock) Cycle() Time { return Time(1e3 / c.MHz) }

// Cycles returns the duration of n (possibly fractional) cycles.
func (c Clock) Cycles(n float64) Time { return Time(n * 1e3 / c.MHz) }

// Flops counts floating point operations.
type Flops int64

// MFlops reports a rate in MFlop/s for f flops in d time.
func MFlops(f Flops, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(f) / d.Seconds() / 1e6
}
