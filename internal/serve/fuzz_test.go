package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzHandler returns the handler of a server with no result cache, so
// every input exercises the full path, whose recovery middleware re-panics:
// a handler panic surfaces as a fuzz crash instead of a silent 500.
func fuzzHandler(f *testing.F, cfg Config) http.Handler {
	cfg.CacheEntries = -1
	cfg.MaxBodyBytes = 1 << 16
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	s.panicHook = func(v any) { panic(v) }
	return s.Handler()
}

// postFuzzBody sends body to path and asserts the hardening contract every
// response meets: it is valid JSON, and a non-200 is the error envelope
// with both fields set. It returns the status and the response body.
func postFuzzBody(t *testing.T, handler http.Handler, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, req)

	resp := w.Result()
	defer resp.Body.Close()
	out := w.Body.Bytes()
	if !json.Valid(out) {
		t.Fatalf("status %d: response is not valid JSON: %q", resp.StatusCode, out)
	}
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, out
	}
	var env errEnvelope
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("status %d: not an error envelope: %v (%q)", resp.StatusCode, err, out)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("status %d: empty error envelope fields: %q", resp.StatusCode, out)
	}
	return resp.StatusCode, out
}

// FuzzAlignHandler throws arbitrary bodies at POST /v1/align and asserts
// the hardening contract: the handler never panics, and every response —
// success or failure — is valid JSON, with non-200s always carrying the
// error envelope.
func FuzzAlignHandler(f *testing.F) {
	handler := fuzzHandler(f, Config{Timeout: 5 * time.Second})

	// Seed with a fully valid request built from the committed fixtures,
	// plus the committed corpus under testdata/fuzz/FuzzAlignHandler.
	valid, err := json.Marshal(map[string]any{
		"name": "sample", "asm": readFixture(f, "sample.asm"), "profile": readFixture(f, "sample.prof"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"asm":"proc main\n halt\nendproc\n","profile":"program p\ninstrs 1\n"}`))
	f.Add([]byte(`{"asm":"`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		postFuzzBody(t, handler, "/v1/align", body)
	})
}

// FuzzSimulateHandler throws arbitrary bodies at POST /v1/simulate, in
// both request shapes, under FuzzAlignHandler's contract. An accepted
// inline request must also keep every generation within maxInlineSteps
// retired instructions. Suite-mode work is bounded by the tight request
// deadline instead: a case that runs past it answers 504 in the envelope,
// which the contract accepts.
func FuzzSimulateHandler(f *testing.F) {
	handler := fuzzHandler(f, Config{Timeout: time.Second, Parallelism: 1})

	// Seed with a walk request built from the committed fixtures, plus the
	// committed corpus under testdata/fuzz/FuzzSimulateHandler: every
	// request shape, and the negative block ids that once panicked the
	// aligner behind Read.
	valid, err := json.Marshal(map[string]any{
		"name": "sample", "asm": readFixture(f, "sample.asm"), "profile": readFixture(f, "sample.prof"),
		"generator": "walk", "max_instrs": 4096, "archs": []string{"btfnt", "tage"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)

	f.Fuzz(func(t *testing.T, body []byte) {
		status, out := postFuzzBody(t, handler, "/v1/simulate", body)
		if status != http.StatusOK {
			return
		}
		var sr SimulateResponse
		if err := json.Unmarshal(out, &sr); err != nil {
			t.Fatalf("status 200: not a simulate response: %v (%q)", err, out)
		}
		if sr.Mode != "inline" {
			return
		}
		for _, sm := range sr.Summaries {
			if sm.Instrs > maxInlineSteps {
				t.Fatalf("inline %s/%s retired %d instructions, over the cap %d", sm.Arch, sm.Algo, sm.Instrs, maxInlineSteps)
			}
		}
	})
}
