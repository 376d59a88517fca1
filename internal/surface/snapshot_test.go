package surface

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/units"
)

// testSurface builds a small fully-populated surface with
// non-trivial values on every field.
func testSurface() *Surface {
	s := New("t3e", "local load", []int{1, 2, 8}, []units.Bytes{4 * units.KB, 64 * units.KB})
	s.CalHash = 0xDEADBEEFCAFE
	for wi := range s.WorkingSets {
		for si := range s.Strides {
			s.Set(wi, si, units.BytesPerSec(float64(100+10*wi+si)+0.25))
			if (wi+si)%2 == 1 {
				s.SetSource(wi, si, Analytic)
			}
		}
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, s := range []*Surface{
		testSurface(),
		New("8400", "empty", nil, nil),
		New("t3d", "one cell", []int{1}, []units.Bytes{units.KB}),
	} {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Title, err)
		}
		var got Surface
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("%s: unmarshal: %v", s.Title, err)
		}
		if got.Machine != s.Machine || got.Title != s.Title || got.CalHash != s.CalHash ||
			!axesEqual(&got, s) || !bwEqual(&got, s) ||
			!reflect.DeepEqual(got.Source, s.Source) {
			t.Fatalf("%s: round trip mismatch:\ngot  %+v\nwant %+v", s.Title, got, *s)
		}
		// Byte stability: re-encoding the decoded surface must
		// reproduce the snapshot exactly.
		b2, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", s.Title, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("%s: snapshot is not byte-stable across a round trip", s.Title)
		}
	}
}

func axesEqual(a, b *Surface) bool {
	if len(a.Strides) != len(b.Strides) || len(a.WorkingSets) != len(b.WorkingSets) {
		return false
	}
	for i := range a.Strides {
		if a.Strides[i] != b.Strides[i] {
			return false
		}
	}
	for i := range a.WorkingSets {
		if a.WorkingSets[i] != b.WorkingSets[i] {
			return false
		}
	}
	return true
}

func bwEqual(a, b *Surface) bool {
	return reflect.DeepEqual(a.BW, b.BW)
}

// TestSnapshotGolden pins the wire format: the bytes of a fixed
// surface are committed, and any layout change fails here until the
// version is bumped and the golden regenerated (UPDATE_GOLDEN=1).
func TestSnapshotGolden(t *testing.T) {
	golden := filepath.Join("testdata", "surface_v2.bin")
	b, err := testSurface().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("snapshot bytes changed (%d got vs %d golden); "+
			"bump snapshotVersion and regenerate with UPDATE_GOLDEN=1", len(b), len(want))
	}
	var got Surface
	if err := got.UnmarshalBinary(want); err != nil {
		t.Fatalf("decoding the golden snapshot: %v", err)
	}
	if got.Machine != "t3e" || len(got.BW) != 2 {
		t.Fatalf("golden snapshot decoded to %+v", got)
	}
}

// TestSnapshotTruncated feeds every proper prefix of a valid
// snapshot to the decoder; all must fail, none may panic, and the
// receiver must stay unchanged.
func TestSnapshotTruncated(t *testing.T) {
	b, err := testSurface().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(b); i++ {
		var got Surface
		if err := got.UnmarshalBinary(b[:i]); err == nil {
			t.Fatalf("truncation at byte %d/%d decoded without error", i, len(b))
		}
		if got.Machine != "" || got.BW != nil {
			t.Fatalf("failed decode at byte %d mutated the receiver: %+v", i, got)
		}
	}
}

func TestSnapshotCorrupt(t *testing.T) {
	valid, err := testSurface().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":      corrupt(func(b []byte) { b[0] = 'X' }),
		"future version": corrupt(func(b []byte) { b[4] = 0xFF }),
		"v1":             corrupt(func(b []byte) { b[4] = 1 }),
		// A genuine v1 layout: version 1 and no Source plane.
		"v1 layout": corrupt(func(b []byte) { b[4] = 1 })[:len(valid)-
			len(testSurface().Strides)*len(testSurface().WorkingSets)],
		"trailing bytes": append(append([]byte(nil), valid...), 0xAA),
		"huge axis count": corrupt(func(b []byte) {
			// The stride count sits after magic+version+hash+two strings.
			off := 4 + 2 + 8 + 4 + len("t3e") + 4 + len("local load")
			for i := 0; i < 4; i++ {
				b[off+i] = 0xFF
			}
		}),
		// The source plane is the final run of bytes; tags above
		// Analytic are rejected.
		"bad source tag": corrupt(func(b []byte) { b[len(b)-1] = 0x7F }),
	}
	for name, data := range cases {
		var got Surface
		if err := got.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestCurveSnapshotRoundTrip(t *testing.T) {
	// Every Curve field must survive the codec — a dropped field write
	// silently zeroes it in all persisted sweeps (the dropfieldwrite
	// mutation class).
	c := &Curve{
		Machine: "t3e",
		Title:   "remote fetch bandwidth",
		CalHash: 0xfeedface12345678,
		Strides: []int{1, 2, 4, 8, 128},
		BW:      []units.BytesPerSec{480e6, 330e6, 190e6, 88e6, 21e6},
	}
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Curve
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&got, c) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, *c)
	}
	b2, err := got.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("curve snapshot is not byte-stable across a round trip")
	}
}
