package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/units"
)

// Request decoding. The query endpoints read their bodies with a
// strict scanner that accepts only the canonical subset of JSON the
// clients send:
//
//   - one object, with exact lower-case keys, each at most once;
//   - strings of printable ASCII without escapes;
//   - plain integers of at most 18 digits;
//   - "ws" and "bytes" as a non-negative integer or a
//     units.ParseBytes string.
//
// Any other body — case-folded or duplicate keys, unknown keys, null,
// floats, escapes, negative sizes, longer numbers, a size string
// ParseBytes refuses, or a parse error — is declined and decoded by
// encoding/json instead, so what the endpoints accept, what they
// refuse and the messages they refuse it with are encoding/json's.
// Where the scanner accepts a body, it produces the value
// encoding/json would (FuzzRequestDecode checks this).

// maxDigits bounds a scanned integer; 18 decimal digits always fit
// an int64.
const maxDigits = 18

// bodyPool recycles request body buffers. A decoded request never
// aliases its buffer: strings are interned or copied.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffers returned to bodyPool, so one large
// batch does not pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

// decode reads a bounded body into v: with strict when the body is in
// the canonical subset, else with encoding/json.
func decode[T any](w http.ResponseWriter, r *http.Request, v *T, strict func(*scanner, *T) bool) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return err
	}
	body := buf.Bytes()
	if got, ok := scan(body, strict); ok {
		*v = got
		return nil
	}
	return json.Unmarshal(body, v)
}

// scan reads the whole body with strict. ok is false when the body is
// outside the canonical subset; v is then partly filled and unused.
func scan[T any](body []byte, strict func(*scanner, *T) bool) (v T, ok bool) {
	sc := scanner{b: body}
	ok = strict(&sc, &v) && sc.end()
	return v, ok
}

// scanner reads the canonical subset from a body. Each method skips
// leading whitespace and reports whether it found what it reads; a
// false leaves the position unspecified, and the caller declines.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// lit consumes the byte c.
func (s *scanner) lit(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// plain marks the bytes a scanned string may hold: printable ASCII
// but the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// raw reads a string of plain bytes and returns them; they alias the
// body.
func (s *scanner) raw() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	j := s.i
	for j < len(s.b) && plain[s.b[j]] {
		j++
	}
	if j == len(s.b) || s.b[j] != '"' {
		return nil, false
	}
	v := s.b[s.i:j]
	s.i = j + 1
	return v, true
}

// str reads a string value; the values the service knows come back
// as constants, so a canonical query allocates no string.
func (s *scanner) str(v *string) bool {
	b, ok := s.raw()
	if !ok {
		return false
	}
	switch string(b) {
	case "8400":
		*v = "8400"
	case "t3d":
		*v = "t3d"
	case "t3e":
		*v = "t3e"
	case "load":
		*v = "load"
	case "transfer":
		*v = "transfer"
	case "fetch":
		*v = "fetch"
	case "deposit":
		*v = "deposit"
	case "naive-fetch":
		*v = "naive-fetch"
	default:
		*v = string(b)
	}
	return true
}

// int64 reads a JSON integer: an optional minus, then 0 or a digit
// string without a leading zero. A fraction or an exponent is left
// unread, so the caller's next token fails.
func (s *scanner) int64(v *int64) bool {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var n int64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		n = n*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if d := s.i - start; d == 0 || d > maxDigits || d > 1 && s.b[start] == '0' {
		return false
	}
	if neg {
		n = -n
	}
	*v = n
	return true
}

func (s *scanner) int(v *int) bool {
	var n int64
	if !s.int64(&n) {
		return false
	}
	*v = int(n)
	return true
}

// size reads a Size the way Size.UnmarshalJSON does, declining
// wherever it would fail.
func (s *scanner) size(v *Size) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == '"' {
		b, ok := s.raw()
		if !ok {
			return false
		}
		n, err := units.ParseBytes(string(b))
		*v = Size(n)
		return err == nil
	}
	var n int64
	if !s.int64(&n) || n < 0 {
		return false
	}
	*v = Size(n)
	return true
}

// object reads an object whose keys each appear at most once. field
// reads the value of one key and returns its bit in the seen mask, or
// 0 to decline (an unknown key, or a value field could not read).
func (s *scanner) object(field func(key []byte) uint) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint
	for {
		key, ok := s.raw()
		if !ok || !s.lit(':') {
			return false
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.lit(',') {
			return s.lit('}')
		}
	}
}

// bandwidth reads a BandwidthRequest.
func (s *scanner) bandwidth(q *BandwidthRequest) bool {
	return s.object(func(key []byte) uint {
		var bit uint
		var ok bool
		switch string(key) {
		case "machine":
			bit, ok = 1, s.str(&q.Machine)
		case "pattern":
			bit, ok = 2, s.str(&q.Pattern)
		case "mode":
			bit, ok = 4, s.str(&q.Mode)
		case "ws":
			bit, ok = 8, s.size(&q.WS)
		case "stride":
			bit, ok = 16, s.int(&q.Stride)
		}
		if !ok {
			return 0
		}
		return bit
	})
}

// batch reads a BatchRequest. An empty array decodes to an empty
// slice and an absent key to nil, as encoding/json has them.
func (s *scanner) batch(req *BatchRequest) bool {
	return s.object(func(key []byte) uint {
		if string(key) != "queries" || !s.lit('[') {
			return 0
		}
		qs := make([]BandwidthRequest, 0, 16)
		if !s.lit(']') {
			for {
				qs = append(qs, BandwidthRequest{})
				if !s.bandwidth(&qs[len(qs)-1]) {
					return 0
				}
				if !s.lit(',') {
					break
				}
			}
			if !s.lit(']') {
				return 0
			}
		}
		req.Queries = qs
		return 1
	})
}

// plan reads a PlanRequest.
func (s *scanner) plan(req *PlanRequest) bool {
	return s.object(func(key []byte) uint {
		var bit uint
		var ok bool
		switch string(key) {
		case "machine":
			bit, ok = 1, s.str(&req.Machine)
		case "bytes":
			bit, ok = 2, s.size(&req.Bytes)
		case "stride":
			bit, ok = 4, s.int(&req.Stride)
		}
		if !ok {
			return 0
		}
		return bit
	})
}
