package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"netpath/internal/prog"
)

// FuzzSubmit pins the submission decoder's hardening contract: an arbitrary
// request body — truncated JSON, hostile assembly, bogus program documents,
// absurd numbers — always yields a typed 4xx/503 or a success, never a 5xx
// and never a panic. Quotas are tiny so the occasional accidentally-valid
// guest stays cheap.
func FuzzSubmit(f *testing.F) {
	cfg := Config{
		Workers:    2,
		QueueDepth: 8,
		Logf:       func(string, ...any) {},
		Quotas: Quotas{
			MaxBodyBytes:    1 << 16,
			MaxInstrs:       512,
			MaxMemWords:     1 << 12,
			MaxSteps:        500_000,
			DefaultSteps:    100_000,
			MaxDeadline:     time.Second,
			DefaultDeadline: 200 * time.Millisecond,
		},
	}
	s := New(cfg)
	handler := s.Handler()
	f.Cleanup(func() { s.queue.close(); s.pool.Wait() })

	f.Add([]byte(`{"tenant":"a","asm":"func main:\n halt\n"}`))
	f.Add([]byte(`{"tenant":"a","prog":{"version":"netpath-prog/v1"}}`))
	f.Add([]byte(`{"tenant":"a","bench":"compress","scale":0.001}`))
	f.Add([]byte(`{"tenant":"a","asm":"func main:\n movi r0, 0\nl:\n addi r0, r0, 1\n bri.lt r0, 10, l\n halt\n","max_steps":1000}`))
	f.Add([]byte(`{"tenant":""}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"tenant":"a","asm":"func main:\n halt\n","deadline_ms":-5}`))
	f.Add([]byte(`{"tenant":"a","asm":"func main:\n halt\n"} trailing`))
	f.Add([]byte(`{"tenant":"a","prog":{"version":"netpath-prog/v1","name":"x","mem_size":-1,"instrs":[{"op":26}],"funcs":[{"name":"f","entry":0,"end":1}],"blocks":[0]}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code >= 500 && rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("body %q produced status %d: %s", body, rr.Code, rr.Body.String())
		}
		if rr.Code != http.StatusOK {
			var eb errBody
			if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Error == nil || eb.Error.Code == "" {
				t.Fatalf("body %q: status %d without a typed error envelope: %s",
					body, rr.Code, rr.Body.String())
			}
		}
	})
}

// oracleDecode is the request decoder decodeRequest replaced, kept as the
// reference: one encoding/json pass over the body as it streams in, then
// validate.
func oracleDecode(body io.Reader) (*runRequest, *apiError) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req runRequest
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, errf(CodeQuota, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", maxErr.Limit)
		}
		return nil, errf(CodeBadRequest, http.StatusBadRequest, "malformed JSON: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errf(CodeBadRequest, http.StatusBadRequest, "trailing data after request object")
	}
	if e := req.validate(); e != nil {
		return nil, e
	}
	return &req, nil
}

// FuzzDecodeRequest holds the buffered request path to the oracle: for
// every body, decodeRequest returns the same request fields (and the
// programKey of them), or the same status, code and message. Each body is
// decoded against an empty program cache, and a successful one again with
// its key cached, so the hit path that skips the document's JSON check is
// compared too.
func FuzzDecodeRequest(f *testing.F) {
	const limit = 1 << 10
	doc := `{"schema":"netpath-prog/v1","name":"p \"q\" \\ {[","instrs":[{"op":1}]}`
	for _, b := range []string{
		`{"tenant":"a","prog":` + doc + `}`,
		` {"prog":` + doc + ` , "tenant":"a","name":"n","max_steps":5} ` + "\n",
		`{"tenant":"a","PROG":` + doc + `}`,
		`{"tenant":"a","Prog":{},"prog":{}}`,
		`{"tenant":"a","prog":{"k":1},"PROG":{}}`,
		`{"tenant":"a","prog":{"k":1},"prog":{"k":2}}`,
		`{"tenant":"a","prog":{"k":1},"x":{}}`,
		`{"tenant":"a","prog":{"k":1},"name":"n"}`,
		`{"tenant":"a","prog":{"k":1},"PROG":{},"name":"n"}`,
		`{"tenant":"a","prog":{"k":1},"pr\u006fg":{},"name":"n"}`,
		`{"tenant":"a","prog":{"k":1},"prog":{"k":2},"name":"n"}`,
		"{\"tenant\":\"a\",\"prog\":{\"k\":1}\t}\r\n",
		`{"tenant":"a","prog":{},"prog":` + doc + `}`,
		`{"tenant":"a","prog":"x"}`,
		`{"tenant":"a","prog":7}`,
		`{"tenant":"a","prog":null}`,
		`{"tenant":"a","prog":[]}`,
		`{"tenant":"a","prog":{}}`,
		`{"tenant":"a","prog\u0000":{}}`,
		`{"tenant":"a","prōg":{}}`,
		`{"tenant":"a","prog":{"k":"}\"{"}}`,
		`{"tenant":"a","prog":{"k":"\\"}}`,
		`{"tenant":"a","prog":{"k":[}}}`,
		`{"tenant":"a","prog":{"k":1,}}`,
		`{"tenant":"a","prog":{}} trailing`,
		`{"tenant":"a","prog":{}}{}`,
		`{"tenant":"a","prog":{"k":1}`,
		`{"tenant":"a","prog":{`,
		`{"tenant":"a","prog":`,
		`{"tenant":5,"prog":{"k":}}`,
		`{"tenant":"a","asm":"x","prog":{}}`,
		`{"tenant":"","prog":{}}`,
		`{"tenant":"a","wat":1,"prog":{}}`,
		`{"tenant":"a","prog":{}, "scale":2}`,
		`{"tenant":"a","asm":"func main:\n halt\n"}`,
		`{"tenant":"a","bench":"li","scale":0.5}`,
		`[{"tenant":"a","prog":{}}]`,
		``,
		`{"tenant":"a","prog":{"pad":"` + strings.Repeat("x", limit-32) + `"}}`,
		`{"tenant":"a","prog":{"pad":"` + strings.Repeat("x", limit-31) + `"}}`,
		`{"tenant":"a","prog":{}}` + strings.Repeat(" ", limit-24),
		`{"tenant":"a","prog":{}}` + strings.Repeat(" ", limit-23),
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) { matchOracle(t, body, limit) })
}

// matchOracle checks decodeRequest against oracleDecode on body under a
// body quota of limit bytes, with body's program key uncached and then
// cached.
func matchOracle(t *testing.T, body []byte, limit int64) {
	t.Helper()
	want, wantErr := oracleDecode(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	pc := newProgCache()
	for _, hit := range []bool{false, true} {
		var buf bytes.Buffer
		_, err := buf.ReadFrom(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
		got, gotErr := decodeRequest(buf.Bytes(), err, pc)
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("hit=%v body %.200q: error %+v, oracle %+v", hit, body, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.key != want.programKey() {
			t.Fatalf("hit=%v body %.200q: key differs from the oracle's", hit, body)
		}
		got.key = progKey{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hit=%v body %.200q: request %+v, oracle %+v", hit, body, got, want)
		}
		pc.put(want.programKey(), &prog.Program{})
	}
}

// TestDecodeRequestDepth: encoding/json caps nesting at 10000 levels, and
// a prog document sits one level down in its body, so the document's own
// limit is 9999. Bodies too large for the fuzzer's quota check it.
func TestDecodeRequestDepth(t *testing.T) {
	for _, depth := range []int{9998, 9999, 10000, 10001} {
		doc := strings.Repeat(`{"a":`, depth-1) + "{}" + strings.Repeat("}", depth-1)
		matchOracle(t, []byte(`{"tenant":"a","prog":`+doc+`}`), 1<<20)
		matchOracle(t, []byte(`{"prog":`+doc+`,"tenant":"a"}`), 1<<20)
	}
}
