package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The fuzz targets post arbitrary bodies to the three query endpoints
// through the real handler over an empty store. The property is the
// serving contract for hostile input: no panic and no 5xx — every body
// is answered or refused with a 4xx. The seeds are the golden
// fixture's requests to the endpoint, plus a few malformed bodies.
//
// Run one with: go test -run '^$' -fuzz '^FuzzBandwidth$' -fuzztime 3s ./internal/serve

func fuzzEndpoint(f *testing.F, path string, extra ...string) {
	for _, req := range goldenRequests {
		if req.path == path {
			f.Add(req.body)
		}
	}
	for _, body := range append(extra, "", "{", "null", "[]", `{"queries":null}`) {
		f.Add(body)
	}
	s, err := New(Config{StoreDir: f.TempDir(), Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, w.Code, w.Body.String())
		}
	})
}

func FuzzBandwidth(f *testing.F) {
	fuzzEndpoint(f, "/v1/bandwidth",
		`{"machine":"t3d","pattern":"transfer","mode":"naive-fetch","ws":"1T","stride":1048576}`,
		`{"machine":"t3e","pattern":"load","ws":"9223372036854775807","stride":-1}`)
}

func FuzzBatch(f *testing.F) {
	fuzzEndpoint(f, "/v1/bandwidth/batch",
		`{"queries":[]}`,
		`{"queries":[{"machine":"8400","pattern":"load","ws":"1k","stride":3},{}]}`)
}

func FuzzPlan(f *testing.F) {
	fuzzEndpoint(f, "/v1/plan",
		`{"machine":"8400","bytes":"1M","stride":16}`,
		`{"machine":"t3e","bytes":1099511627776,"stride":1048576}`)
}
