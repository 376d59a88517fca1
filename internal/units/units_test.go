package units

import (
	"math"
	"regexp"
	"strconv"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{1, "1.00ns"},
		{999, "999.00ns"},
		{1500, "1.500us"},
		{2.5e6, "2.500ms"},
		{3e9, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{KB / 2, ".5k"},
		{KB, "1k"},
		{64 * KB, "64k"},
		{MB, "1M"},
		{128 * MB, "128M"},
		{GB, "1G"},
		{100, "100B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTimeStringEdges(t *testing.T) {
	// Zero and negative spans fall through every adaptive-unit case
	// and render as raw nanoseconds; they must not panic or pick a
	// nonsensical unit.
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0.00ns"},
		{-5, "-5.00ns"},
		{-3 * Second, "-3000000000.00ns"},
		{0.25, "0.25ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestBytesStringEdges(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{-1, "-1B"},
		{-2 * KB, "-2048B"}, // negative sizes never claim a power-of-two suffix
		{KB + 1, "1025B"},   // non-aligned sizes render exact
		{3 * KB / 2, "1536B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWordsNonAligned(t *testing.T) {
	cases := []struct {
		in         Bytes
		want, ceil int64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{7, 0, 1},
		{8, 1, 1},
		{9, 1, 2},
		{15, 1, 2},
		{17, 2, 3},
	}
	for _, c := range cases {
		if got := c.in.Words(); got != c.want {
			t.Errorf("Bytes(%d).Words() = %d, want %d", c.in, got, c.want)
		}
		if got := c.in.CeilWords(); got != c.ceil {
			t.Errorf("Bytes(%d).CeilWords() = %d, want %d", c.in, got, c.ceil)
		}
	}
}

func TestScale(t *testing.T) {
	if got := (10 * Nanosecond).Scale(2.5); got != 25 {
		t.Errorf("10ns.Scale(2.5) = %v, want 25ns", got)
	}
	if got := Microsecond.Scale(0); got != 0 {
		t.Errorf("Scale(0) = %v, want 0", got)
	}
}

func TestByteCostPerByteRoundTrip(t *testing.T) {
	f := func(ns uint16, nb uint16) bool {
		total := Time(ns) + 1
		n := Bytes(nb) + 1
		back := total.PerByte(n).ByteCost(n)
		return math.Abs(float64(back-total)/float64(total)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// 64 bytes at 0.5 ns/byte occupy 32 ns.
	perByte := Time(0.5)
	if got := perByte.ByteCost(64); got != 32 {
		t.Errorf("ByteCost = %v, want 32ns", got)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		d := (Time(ms) + 1) * Millisecond
		return math.Abs(d.Seconds()*1e9-float64(d))/float64(d) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWords(t *testing.T) {
	if got := (64 * KB).Words(); got != 8192 {
		t.Errorf("64KB.Words() = %d, want 8192", got)
	}
	if got := Word.Words(); got != 1 {
		t.Errorf("Word.Words() = %d, want 1", got)
	}
}

func TestBW(t *testing.T) {
	// 100 MB in one second is 100e6/1e6 = 104.86 MB/s in the paper's
	// decimal convention (Bytes are binary, rates decimal).
	got := BW(100*MB, Second)
	want := float64(100*MB) / 1e6
	if math.Abs(got.MBps()-want) > 1e-9 {
		t.Errorf("BW = %v MB/s, want %v", got.MBps(), want)
	}
	if BW(MB, 0) != 0 {
		t.Errorf("BW with zero duration should be 0")
	}
	if BW(MB, -5) != 0 {
		t.Errorf("BW with negative duration should be 0")
	}
}

func TestTimeForInvertsBW(t *testing.T) {
	f := func(kb uint16, mbps uint16) bool {
		n := Bytes(kb+1) * KB
		b := MBps(float64(mbps + 1))
		d := TimeFor(n, b)
		back := BW(n, d)
		return math.Abs(float64(back-b)/float64(b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeForZeroBandwidth(t *testing.T) {
	if TimeFor(MB, 0) != 0 {
		t.Errorf("TimeFor with zero bandwidth should be 0")
	}
}

func TestClock(t *testing.T) {
	c := Clock{MHz: 300}
	if math.Abs(float64(c.Cycle())-3.3333333) > 1e-4 {
		t.Errorf("300MHz cycle = %v, want 3.333ns", c.Cycle())
	}
	if math.Abs(float64(c.Cycles(6))-20) > 1e-9 {
		t.Errorf("6 cycles at 300MHz = %v, want 20ns", c.Cycles(6))
	}
	c150 := Clock{MHz: 150}
	if math.Abs(float64(c150.Cycle())-6.6666666) > 1e-4 {
		t.Errorf("150MHz cycle = %v, want 6.667ns", c150.Cycle())
	}
}

func TestMFlops(t *testing.T) {
	// 1e6 flops in 1ms = 1000 MFlop/s.
	got := MFlops(1e6, Millisecond)
	if math.Abs(got-1000) > 1e-9 {
		t.Errorf("MFlops = %v, want 1000", got)
	}
	if MFlops(5, 0) != 0 {
		t.Errorf("MFlops with zero time should be 0")
	}
}

func TestMBpsRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		x := float64(v%1000000) / 10
		return math.Abs(MBps(x).MBps()-x) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"8M", 8 * MB},
		{"512K", 512 * KB},
		{"8388608", 8 * MB},
		{"8MB", 8 * MB},
		{"512k", 512 * KB},
		{"1G", GB},
		{"2gb", 2 * GB},
		{".5k", KB / 2},
		{"0.5K", KB / 2},
		{" 64K ", 64 * KB},
		{"0", 0},
		{"1b", 1},
		{"8m", 8 * MB},
		{"8MiB", 8 * MB},
		{"512kib", 512 * KB},
		{"1gIb", GB},
		{"4Ki", 4 * KB},
		{"16", 16},
		// Integer counts are exact, up to the largest int64.
		{"9007199254740993", 9007199254740993},
		{"9223372036854775807", math.MaxInt64},
		{"8589934591G", 8589934591 * GB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseBytesRejects(t *testing.T) {
	for _, in := range []string{"", "  ", "K", "8Q", "-1K", "-8", "abc", "1.5", "0.3K", "8 M M", "8i", "iB", "8QiB",
		// Non-finite or at least 2^63 bytes: out of int64's range.
		"1e30", "inf", "Infinity", "NaN", "9.3e18", "1e19k", "9223372036854775808", "8589934592G"} {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %v, want error", in, got)
		}
	}
}

// plainInt matches the inputs strconv.ParseInt reads in base 10.
var plainInt = regexp.MustCompile(`^[+-]?[0-9]+$`)

// FuzzParseBytes checks ParseBytes on arbitrary strings: it never
// panics, a success is a non-negative size, and on a plain decimal
// integer it agrees with strconv.ParseInt.
//
// Run it with: go test -run '^$' -fuzz '^FuzzParseBytes$' -fuzztime 3s ./internal/units
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{"8M", ".5k", "8MiB", "8388608", "0", "-0", "+16", "-8", "1e30", "inf", "NaN",
		"9.3e18", "1e19k", "9007199254740993", "9223372036854775807", "9223372036854775808", "8589934591G", "0x10"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseBytes(s)
		if err == nil && got < 0 {
			t.Fatalf("ParseBytes(%q) = %d, want a non-negative size", s, int64(got))
		}
		if !plainInt.MatchString(s) {
			return
		}
		n, perr := strconv.ParseInt(s, 10, 64)
		if wantOK := perr == nil && n >= 0; wantOK != (err == nil) {
			t.Fatalf("ParseBytes(%q) error %v, strconv.ParseInt gives %d, %v", s, err, n, perr)
		}
		if err == nil && int64(got) != n {
			t.Fatalf("ParseBytes(%q) = %d, strconv.ParseInt gives %d", s, int64(got), n)
		}
	})
}
