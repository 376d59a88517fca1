package serve

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Response encoding for the query endpoints and error bodies. The
// encoder appends each type's fields in declaration order, with
// encoding/json's number and string rules ported from the Go
// toolchain's encoding/json (encode.go: floatEncoder.encode and
// appendString with HTML escaping), so its bytes are json.Marshal's
// (TestEncodeMatchesJSON checks this). The cold endpoints keep
// writeJSON.

// errNonFinite is the encoder's refusal of a NaN or infinite float,
// which json.Marshal refuses too.
var errNonFinite = errors.New("serve: non-finite float in response")

// encoder appends a response body to b. The first failure sticks in
// err, and the body is then not written.
type encoder struct {
	b   []byte
	err error
}

// encoderPool recycles response buffers; a body is copied out by the
// ResponseWriter before its buffer is put back.
var encoderPool = sync.Pool{New: func() any { return &encoder{b: make([]byte, 0, 1024)} }}

// maxPooledResponse bounds the buffers returned to encoderPool.
const maxPooledResponse = 64 << 10

// write sends the body built by fill with the given status, exactly as
// writeJSON would send the value fill encodes.
func write(w http.ResponseWriter, status int, fill func(*encoder)) int {
	e := encoderPool.Get().(*encoder)
	defer func() {
		if cap(e.b) <= maxPooledResponse {
			e.b, e.err = e.b[:0], nil
			encoderPool.Put(e)
		}
	}()
	fill(e)
	if e.err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	e.b = append(e.b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.b)
	return status
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// float appends f as encoding/json does: like ES6 number-to-string,
// the shortest representation in 'f' form for 1e-6 <= |f| < 1e21 and
// in 'e' form otherwise, with a one-digit negative exponent unpadded.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.err = errNonFinite
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped:
// printable (DEL included), and none of '"', '\\', '<', '>', '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string with encoding/json's escaping:
// control bytes, quote and backslash escaped, '<', '>' and '&' as
// \u00XX, U+2028 and U+2029 escaped, and each byte of invalid UTF-8
// replaced by \ufffd.
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

func (e *encoder) bandwidth(r *BandwidthResponse) {
	e.raw(`{"machine":`)
	e.str(r.Machine)
	e.raw(`,"pattern":`)
	e.str(r.Pattern)
	if r.Mode != "" {
		e.raw(`,"mode":`)
		e.str(r.Mode)
	}
	e.raw(`,"ws_bytes":`)
	e.int(r.WSBytes)
	e.raw(`,"stride":`)
	e.int(int64(r.Stride))
	e.raw(`,"bw_mbps":`)
	e.float(r.BWMBps)
	e.raw(`,"confidence":`)
	e.str(r.Confidence)
	e.raw(`,"cal_hash":`)
	e.str(r.CalHash)
	e.raw(`}`)
}

func (e *encoder) errorDetail(d *ErrorDetail) {
	e.raw(`{"code":`)
	e.str(d.Code)
	e.raw(`,"message":`)
	e.str(d.Message)
	e.raw(`}`)
}

func (e *encoder) errorBody(b *ErrorBody) {
	e.raw(`{"error":`)
	e.errorDetail(&b.Error)
	e.raw(`}`)
}

func (e *encoder) batch(r *BatchResponse) {
	e.raw(`{"results":`)
	if r.Results == nil {
		e.raw(`null}`)
		return
	}
	e.raw(`[`)
	for i := range r.Results {
		if i > 0 {
			e.raw(`,`)
		}
		res := &r.Results[i]
		e.raw(`{`)
		if res.Result != nil {
			e.raw(`"result":`)
			e.bandwidth(res.Result)
		}
		if res.Error != nil {
			if res.Result != nil {
				e.raw(`,`)
			}
			e.raw(`"error":`)
			e.errorDetail(res.Error)
		}
		e.raw(`}`)
	}
	e.raw(`]}`)
}

func (e *encoder) plan(r *PlanResponse) {
	e.raw(`{"machine":`)
	e.str(r.Machine)
	e.raw(`,"bytes":`)
	e.int(r.Bytes)
	e.raw(`,"stride":`)
	e.int(int64(r.Stride))
	e.raw(`,"cal_hash":`)
	e.str(r.CalHash)
	e.raw(`,"best":`)
	e.str(r.Best)
	e.raw(`,"strategies":`)
	if r.Strategies == nil {
		e.raw(`null}`)
		return
	}
	e.raw(`[`)
	for i := range r.Strategies {
		if i > 0 {
			e.raw(`,`)
		}
		e.strategy(&r.Strategies[i])
	}
	e.raw(`]}`)
}

func (e *encoder) strategy(st *PlanStrategy) {
	e.raw(`{"name":`)
	e.str(st.Name)
	e.raw(`,"time_us":`)
	e.float(st.TimeUS)
	e.raw(`,"bw_mbps":`)
	e.float(st.BWMBps)
	e.raw(`,"confidence":`)
	e.str(st.Confidence)
	e.raw(`,"steps":`)
	if st.Steps == nil {
		e.raw(`null}`)
		return
	}
	e.raw(`[`)
	for i := range st.Steps {
		if i > 0 {
			e.raw(`,`)
		}
		sp := &st.Steps[i]
		e.raw(`{"locality":`)
		e.str(sp.Locality)
		if sp.Mode != "" {
			e.raw(`,"mode":`)
			e.str(sp.Mode)
		}
		e.raw(`,"load_stride":`)
		e.int(int64(sp.LoadStride))
		e.raw(`,"store_stride":`)
		e.int(int64(sp.StoreStride))
		if sp.Blocked {
			e.raw(`,"blocked":true`)
		}
		e.raw(`}`)
	}
	e.raw(`]}`)
}
