package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// canonicalBodies are request bodies in the strict decoder's subset:
// the fast path must take them.
var canonicalBodies = []struct{ path, body string }{
	{"/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":8388608,"stride":4}`},
	{"/v1/bandwidth", `{"machine":"t3d","pattern":"transfer","mode":"deposit","ws":"8M","stride":16}`},
	{"/v1/bandwidth", ` { "stride" : -3 , "ws" : 0 , "machine" : "none" } `},
	{"/v1/bandwidth", `{}`},
	{"/v1/bandwidth/batch", `{"queries":[{"machine":"t3e","pattern":"load","ws":"4k","stride":1},{"machine":"8400","pattern":"transfer","ws":4096,"stride":2}]}`},
	{"/v1/bandwidth/batch", `{"queries":[]}`},
	{"/v1/bandwidth/batch", `{"queries":[{}]}`},
	{"/v1/plan", `{"machine":"t3d","bytes":"2M","stride":32}`},
	{"/v1/plan", `{"machine":"8400","bytes":1048576,"stride":16}`},
}

// declinedBodies are outside the subset: each must go to
// encoding/json, whether it accepts them or not.
var declinedBodies = []string{
	``, `null`, `[]`, `{`, `{"machine":"t3e"`, `{"machine":"t3e"} x`,
	`{"Machine":"t3e"}`, `{"MACHINE":"t3e"}`, `{"machine":"t3e","machine":"t3d"}`,
	`{"queries":[],"queries":[]}`, `{"bytes":1,"bytes":2}`,
	`{"machine":"t3\u0065"}`, `{"machine":"t3e\n"}`, `{"machine":"\"t3e\""}`, `{"machine":"t3\u00e9"}`, "{\"machine\":\"t3\xc3\xa9\"}", "{\"machine\":\"t3e\x7f\"}",
	`{"machine":null}`, `{"ws":null}`, `{"queries":null}`, `{"queries":[null]}`,
	`{"stride":1.0}`, `{"stride":1e2}`, `{"stride":01}`, `{"stride":-}`, `{"stride":+1}`,
	`{"ws":-1}`, `{"bytes":-0.5}`, `{"ws":"-1K"}`, `{"ws":"1e30"}`, `{"ws":"8Q"}`, `{"ws":1234567890123456789}`,
	`{"stride":"4"}`, `{"machine":4}`, `{"extra":1}`, `{"machine":"t3e",}`, `{"queries":[{},]}`,
	`{"queries":[{"stride":1}{"stride":2}]}`, `{"queries":{}}`,
}

// strictAccepts reports whether the strict decoder of the endpoint at
// path takes body.
func strictAccepts(path, body string) bool {
	b := []byte(body)
	switch path {
	case "/v1/bandwidth":
		_, ok := scan(b, (*scanner).bandwidth)
		return ok
	case "/v1/bandwidth/batch":
		_, ok := scan(b, (*scanner).batch)
		return ok
	}
	_, ok := scan(b, (*scanner).plan)
	return ok
}

// TestStrictDecodeSubset pins which bodies take the fast path: the
// canonical ones, including the golden fixture's and the shapes
// clients marshal, and none of the bodies outside the subset.
func TestStrictDecodeSubset(t *testing.T) {
	for _, c := range canonicalBodies {
		if !strictAccepts(c.path, c.body) {
			t.Errorf("%s %s: declined, want the strict decoder to take it", c.path, c.body)
		}
	}
	for _, req := range goldenRequests {
		if req.method == "POST" && !strictAccepts(req.path, req.body) {
			t.Errorf("golden %s %s: declined", req.path, req.body)
		}
	}
	marshalled := []any{
		BandwidthRequest{Machine: "t3e", Pattern: "load", WS: 8 << 20, Stride: 4},
		BatchRequest{Queries: []BandwidthRequest{{Machine: "t3d", Pattern: "transfer", Mode: "fetch", WS: 4096, Stride: 3}}},
		PlanRequest{Machine: "t3d", Bytes: 2 << 20, Stride: 32},
	}
	for i, v := range marshalled {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if path := []string{"/v1/bandwidth", "/v1/bandwidth/batch", "/v1/plan"}[i]; !strictAccepts(path, string(b)) {
			t.Errorf("marshalled %s %s: declined", path, b)
		}
	}
	for _, body := range declinedBodies {
		for _, path := range []string{"/v1/bandwidth", "/v1/bandwidth/batch", "/v1/plan"} {
			if strictAccepts(path, body) {
				t.Errorf("%s %q: taken by the strict decoder, want encoding/json", path, body)
			}
		}
	}
}

// agreesWithJSON fails t when the strict decoder accepts body but
// encoding/json refuses it or decodes a different value.
func agreesWithJSON[T any](t *testing.T, body []byte, strict func(*scanner, *T) bool) {
	got, ok := scan(body, strict)
	if !ok {
		return
	}
	var want T
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("strict decoder accepts %q as %+v; encoding/json refuses it: %v", body, got, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: strict decoder %#v, encoding/json %#v", body, got, want)
	}
}

// FuzzRequestDecode is the differential check of the strict request
// decoder: for any body and each request type, it declines or decodes
// exactly the value encoding/json does, and encoding/json accepts the
// body too.
//
// Run it with: go test -run '^$' -fuzz '^FuzzRequestDecode$' -fuzztime 30s ./internal/serve
func FuzzRequestDecode(f *testing.F) {
	for _, req := range goldenRequests {
		f.Add(req.body)
	}
	for _, c := range canonicalBodies {
		f.Add(c.body)
	}
	for _, body := range declinedBodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		b := []byte(body)
		agreesWithJSON(t, b, (*scanner).bandwidth)
		agreesWithJSON(t, b, (*scanner).batch)
		agreesWithJSON(t, b, (*scanner).plan)
	})
}

// encodeCase is one response value with its hand encoding.
type encodeCase struct {
	name string
	v    any
	fill func(*encoder)
}

func bandwidthCase(name string, r BandwidthResponse) encodeCase {
	return encodeCase{name, r, func(e *encoder) { e.bandwidth(&r) }}
}

func batchCase(name string, r BatchResponse) encodeCase {
	return encodeCase{name, r, func(e *encoder) { e.batch(&r) }}
}

func planCase(name string, r PlanResponse) encodeCase {
	return encodeCase{name, r, func(e *encoder) { e.plan(&r) }}
}

func errorCase(name string, r ErrorBody) encodeCase {
	return encodeCase{name, r, func(e *encoder) { e.errorBody(&r) }}
}

// checkEncode compares write with writeJSON on one case: status,
// Content-Type and body, including the 500 both give a non-finite
// float.
func checkEncode(t *testing.T, c encodeCase) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	ws, gs := writeJSON(want, 200, c.v), write(got, 200, c.fill)
	if ws != gs || want.Code != got.Code || want.Body.String() != got.Body.String() ||
		want.Header().Get("Content-Type") != got.Header().Get("Content-Type") {
		t.Fatalf("%s: encoder %d %q %q, json.Marshal %d %q %q", c.name,
			gs, got.Header().Get("Content-Type"), got.Body, ws, want.Header().Get("Content-Type"), want.Body)
	}
}

// TestEncodeMatchesJSON checks the hand encoder against json.Marshal,
// the reference it replaces on the query endpoints: a table of edge
// cases, then random values.
func TestEncodeMatchesJSON(t *testing.T) {
	steps := []PlanStep{
		{Locality: "remote", Mode: "deposit", LoadStride: 1, StoreStride: 32},
		{Locality: "local", LoadStride: 32, StoreStride: 1, Blocked: true},
	}
	cases := []encodeCase{
		bandwidthCase("golden", BandwidthResponse{Machine: "t3e", Pattern: "load", WSBytes: 524288, Stride: 4,
			BWMBps: 107.38255033557047, Confidence: "analytic", CalHash: "e641aeb1ad79d93e"}),
		bandwidthCase("mode", BandwidthResponse{Machine: "t3d", Pattern: "transfer", Mode: "fetch", WSBytes: -1, Stride: -7, BWMBps: 1}),
		bandwidthCase("zero", BandwidthResponse{}),
		batchCase("nil results", BatchResponse{}),
		batchCase("empty results", BatchResponse{Results: []BatchResult{}}),
		batchCase("mixed results", BatchResponse{Results: []BatchResult{
			{Result: &BandwidthResponse{Machine: "8400", BWMBps: 2.5e-7}},
			{Error: &ErrorDetail{Code: CodeUnknownMachine, Message: `unknown machine "<none>" (have [8400 t3d t3e])`}},
			{},
			{Result: &BandwidthResponse{BWMBps: 1e21}, Error: &ErrorDetail{Code: "both"}},
		}}),
		batchCase("nan result", BatchResponse{Results: []BatchResult{{Result: &BandwidthResponse{BWMBps: math.NaN()}}}}),
		planCase("nil strategies", PlanResponse{Machine: "t3d"}),
		planCase("empty strategies", PlanResponse{Strategies: []PlanStrategy{}}),
		planCase("nil and empty steps", PlanResponse{Machine: "t3d", Bytes: 2097152, Stride: 32, CalHash: "dfad870e16de2e6c", Best: "a",
			Strategies: []PlanStrategy{{Name: "a", TimeUS: 40894.518}, {Name: "b", Steps: []PlanStep{}}, {Name: "c", TimeUS: 1e-7, BWMBps: 123456789e15, Steps: steps}}}),
		planCase("inf time", PlanResponse{Strategies: []PlanStrategy{{TimeUS: math.Inf(1)}}}),
		planCase("-inf bw", PlanResponse{Strategies: []PlanStrategy{{BWMBps: math.Inf(-1)}}}),
		errorCase("escapes", ErrorBody{Error: ErrorDetail{Code: "bad_request",
			Message: "a<b>&c \"q\" \\ \b\f\n\r\t \x00\x01\x1f\x7f \u00e9 \u2028 \u2029 \xff\xfe \xe2\x80 \u65e5\u672c"}}),
		errorCase("empty", ErrorBody{}),
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300,
		5e-324, math.MaxFloat64, 123456.789, -0.000123, 1e-10, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases, bandwidthCase(fmt.Sprintf("float %v", f), BandwidthResponse{BWMBps: f}))
	}
	for _, c := range cases {
		checkEncode(t, c)
	}

	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\t", "\n", "\x7f",
		"\u00e9", "\u65e5", "\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80", "\U0001F600", "\ufffd"}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return float64(rng.Intn(1 << 20))
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	bandwidth := func() *BandwidthResponse {
		return &BandwidthResponse{Machine: str(), Pattern: str(), Mode: str(), WSBytes: rng.Int63() - rng.Int63(),
			Stride: rng.Intn(1<<21) - 1<<20, BWMBps: float(), Confidence: str(), CalHash: str()}
	}
	for i := 0; i < 2000; i++ {
		var c encodeCase
		switch i % 4 {
		case 0:
			c = bandwidthCase("random bandwidth", *bandwidth())
		case 1:
			var r BatchResponse
			if n := rng.Intn(5) - 1; n >= 0 {
				r.Results = make([]BatchResult, n)
			}
			for j := range r.Results {
				if rng.Intn(2) == 0 {
					r.Results[j].Result = bandwidth()
				}
				if rng.Intn(2) == 0 {
					r.Results[j].Error = &ErrorDetail{Code: str(), Message: str()}
				}
			}
			c = batchCase("random batch", r)
		case 2:
			r := PlanResponse{Machine: str(), Bytes: rng.Int63(), Stride: rng.Intn(100), CalHash: str(), Best: str()}
			if n := rng.Intn(4) - 1; n >= 0 {
				r.Strategies = make([]PlanStrategy, n)
			}
			for j := range r.Strategies {
				st := &r.Strategies[j]
				*st = PlanStrategy{Name: str(), TimeUS: float(), BWMBps: float(), Confidence: str()}
				if n := rng.Intn(4) - 1; n >= 0 {
					st.Steps = make([]PlanStep, n)
				}
				for k := range st.Steps {
					st.Steps[k] = PlanStep{Locality: str(), Mode: str(), LoadStride: rng.Intn(64), StoreStride: rng.Intn(64), Blocked: rng.Intn(2) == 0}
				}
			}
			c = planCase("random plan", r)
		default:
			c = errorCase("random error", ErrorBody{Error: ErrorDetail{Code: str(), Message: str()}})
		}
		checkEncode(t, c)
	}
}
