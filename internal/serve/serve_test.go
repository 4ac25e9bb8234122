package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"balign/internal/experiments"
	"balign/internal/metrics"
	"balign/internal/obs"
	"balign/internal/predict"
)

var update = flag.Bool("update", false, "rewrite golden files")

// readFixture loads a committed fixture from testdata.
func readFixture(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns the status, headers and body.
func post(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// alignRequest is the canonical fixture align body.
func alignRequest(t *testing.T) map[string]any {
	return map[string]any{
		"name":    "sample",
		"asm":     readFixture(t, "sample.asm"),
		"profile": readFixture(t, "sample.prof"),
		"algos":   []string{"orig", "greedy", "cost", "tryn", "exttsp"},
	}
}

// alignCFGRequest is the align body in the CFG document encoding: one
// combined program+profile document instead of asm + profile texts.
func alignCFGRequest(t *testing.T) map[string]any {
	return map[string]any{
		"cfg":   readFixture(t, "sample.cfg.json"),
		"algos": []string{"orig", "greedy", "cost", "tryn", "exttsp"},
	}
}

func simulateInlineVM(t *testing.T) map[string]any {
	return map[string]any{
		"name":    "sample",
		"asm":     readFixture(t, "sample.asm"),
		"profile": readFixture(t, "sample.prof"),
	}
}

func simulateInlineWalk(t *testing.T) map[string]any {
	return map[string]any{
		"name":       "sample",
		"asm":        readFixture(t, "sample.asm"),
		"profile":    readFixture(t, "sample.prof"),
		"generator":  "walk",
		"max_instrs": 1 << 16,
		"seed":       7,
	}
}

func simulateSuite() map[string]any {
	return map[string]any{
		"programs": []string{"ora"},
		"scale":    0.05,
	}
}

// checkGolden compares body to the named golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s: response differs from golden (run with -update after intended changes)\n got: %s\nwant: %s",
			name, body, want)
	}
}

// goldenCases is the endpoint/request matrix the golden and parity tests
// share.
func goldenCases(t *testing.T) []struct {
	name string
	path string
	req  map[string]any
} {
	return []struct {
		name string
		path string
		req  map[string]any
	}{
		{"align_default.json", "/v1/align", alignRequest(t)},
		{"align_cfg.json", "/v1/align", alignCFGRequest(t)},
		{"simulate_inline_vm.json", "/v1/simulate", simulateInlineVM(t)},
		{"simulate_inline_walk.json", "/v1/simulate", simulateInlineWalk(t)},
		{"simulate_suite.json", "/v1/simulate", simulateSuite()},
	}
}

// TestGoldenEndpoints pins the exact response bytes of both endpoints on
// the default (flat kernel) server.
func TestGoldenEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range goldenCases(t) {
		status, hdr, body := post(t, ts.URL+tc.path, tc.req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, status, body)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", tc.name, ct)
		}
		checkGolden(t, tc.name, body)
	}
}

// TestKernelStreamParity asserts the serve layer extends the repository's
// executor parity guarantee: every golden response, produced by the
// default flat-kernel server, is byte-identical from a server whose
// streamed batches feed the reference simulators instead (subtest ref_on:
// the ref kernel on the streamed trace).
func TestKernelStreamParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity check is not short")
	}
	t.Run("ref_on", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Kernel: "ref"})
		for _, tc := range goldenCases(t) {
			status, _, body := post(t, ts.URL+tc.path, tc.req)
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, status, body)
			}
			checkGolden(t, tc.name, body)
		}
	})
}

// TestSuiteReportMatchesBaexp asserts the /v1/simulate suite report is the
// same bytes `baexp suite` renders: both go through
// experiments.Summaries + metrics.EncodeSummaries with the same inputs.
func TestSuiteReportMatchesBaexp(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL+"/v1/simulate", simulateSuite())
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	summaries, err := experiments.Summaries(experiments.Config{
		Scale: 0.05, Programs: []string{"ora"},
	}, predict.AllArchs())
	if err != nil {
		t.Fatal(err)
	}
	if want := metrics.EncodeSummaries(summaries); resp.Report != want {
		t.Errorf("suite report differs from baexp encoding\n got: %q\nwant: %q", resp.Report, want)
	}
}

// TestHealthzAndDebug covers the liveness and debug surfaces.
func TestHealthzAndDebug(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "{\"status\":\"ok\"}\n" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug/vars: status %d", resp.StatusCode)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != "{\"status\":\"draining\"}\n" {
		t.Errorf("draining healthz: %d %q", resp.StatusCode, body)
	}
}

// TestErrorEnvelopes spot-checks the HTTP error mapping: every failure is a
// JSON envelope with a stable code.
func TestErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048})
	cases := []struct {
		name   string
		path   string
		method string
		body   string
		status int
		code   string
	}{
		{"method", "/v1/align", http.MethodGet, "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad json", "/v1/align", http.MethodPost, "{", http.StatusBadRequest, "bad_json"},
		{"unknown field", "/v1/align", http.MethodPost, `{"bogus":1}`, http.StatusBadRequest, "bad_json"},
		{"trailing data", "/v1/align", http.MethodPost, `{"asm":"x","profile":"y"} {}`, http.StatusBadRequest, "bad_json"},
		{"missing asm", "/v1/align", http.MethodPost, `{"profile":"y"}`, http.StatusBadRequest, "bad_request"},
		{"bad asm", "/v1/align", http.MethodPost, `{"asm":"bogus !","profile":"y"}`, http.StatusBadRequest, "bad_asm"},
		{"negative branch block", "/v1/align", http.MethodPost,
			`{"asm":"proc main\n halt\nendproc\n","profile":"proc main\nbranch -7 1 1\n"}`, http.StatusBadRequest, "bad_profile"},
		{"negative edge blocks", "/v1/simulate", http.MethodPost,
			`{"asm":"proc main\n halt\nendproc\n","profile":"proc main\nedge -3 -4 7\n"}`, http.StatusBadRequest, "bad_profile"},
		{"bad arch", "/v1/simulate", http.MethodPost, `{"asm":"x","archs":["vax"]}`, http.StatusBadRequest, "bad_request"},
		{"both modes", "/v1/simulate", http.MethodPost, `{"asm":"x","programs":["ora"]}`, http.StatusBadRequest, "bad_request"},
		{"neither mode", "/v1/simulate", http.MethodPost, `{}`, http.StatusBadRequest, "bad_request"},
		{"too large", "/v1/align", http.MethodPost, `{"asm":"` + string(bytes.Repeat([]byte{'a'}, 4096)) + `"}`,
			http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			var env errEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("body is not an error envelope: %v (%s)", err, body)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.code)
			}
		})
	}
}

// TestCacheDeterminism hammers one key from many goroutines and asserts
// every response body is byte-identical, then that a follow-up request is
// served from the cache.
func TestCacheDeterminism(t *testing.T) {
	rec := obs.New("test")
	s, ts := newTestServer(t, Config{Obs: rec})
	req := alignRequest(t)

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := post(t, ts.URL+"/v1/align", req)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("concurrent identical requests returned different bodies")
		}
	}

	status, hdr, body := post(t, ts.URL+"/v1/align", req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if hdr.Get("X-Balign-Cache") != "hit" {
		t.Errorf("expected a cache hit, got %q", hdr.Get("X-Balign-Cache"))
	}
	if !bytes.Equal(body, bodies[0]) {
		t.Errorf("cached body differs from computed body")
	}
	if st := s.CacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("cache stats did not record the traffic: %+v", st)
	}
}

// TestParallelMixedRequests runs a mixed workload under -race: aligns and
// inline simulations interleaved across every server mode knob left at
// defaults.
func TestParallelMixedRequests(t *testing.T) {
	// Enough slots and queue patience that nothing is turned away: this
	// test is about data races under mixed load, not admission control.
	_, ts := newTestServer(t, Config{MaxInFlight: 16, QueueWait: 2 * time.Minute})
	reqs := []struct {
		path string
		req  map[string]any
	}{
		{"/v1/align", alignRequest(t)},
		{"/v1/simulate", simulateInlineVM(t)},
		{"/v1/simulate", simulateInlineWalk(t)},
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc := reqs[i%len(reqs)]
			status, _, body := post(t, ts.URL+tc.path, tc.req)
			if status != http.StatusOK {
				t.Errorf("%s: status %d: %s", tc.path, status, body)
			}
		}(i)
	}
	wg.Wait()
}

// TestSaturationReturns429 holds the single admission slot with a parked
// request and asserts the next request is rejected with 429 — and that the
// rejection neither corrupts nor evicts already-cached entries.
func TestSaturationReturns429(t *testing.T) {
	s, err := New(Config{MaxInFlight: 1, QueueWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed the cache while the server is idle.
	req := alignRequest(t)
	status, _, cached := post(t, ts.URL+"/v1/align", req)
	if status != http.StatusOK {
		t.Fatalf("seed request: status %d", status)
	}

	s.testBlock = make(chan struct{})
	done := make(chan []byte, 1)
	go func() {
		_, _, body := post(t, ts.URL+"/v1/simulate", simulateInlineVM(t))
		done <- body
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })

	status, _, body := post(t, ts.URL+"/v1/align", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (%s)", status, body)
	}
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "saturated" {
		t.Errorf("429 envelope = %s (err %v)", body, err)
	}

	close(s.testBlock)
	<-done
	s.testBlock = nil

	// The rejected request must not have disturbed the cached entry.
	status, hdr, body := post(t, ts.URL+"/v1/align", req)
	if status != http.StatusOK || hdr.Get("X-Balign-Cache") != "hit" || !bytes.Equal(body, cached) {
		t.Errorf("cache disturbed by saturation: status %d cache %q identical %v",
			status, hdr.Get("X-Balign-Cache"), bytes.Equal(body, cached))
	}
}

// TestDrainRejectsNewWorkAndFinishesInFlight proves graceful shutdown
// semantics: after BeginDrain new requests get 503 while an already
// admitted request still completes successfully.
func TestDrainRejectsNewWorkAndFinishesInFlight(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.testBlock = make(chan struct{})
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		status, _, body := post(t, ts.URL+"/v1/align", alignRequest(t))
		done <- result{status, body}
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })

	s.BeginDrain()
	status, hdr, body := post(t, ts.URL+"/v1/align", alignRequest(t))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503 (%s)", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}

	close(s.testBlock)
	r := <-done
	if r.status != http.StatusOK {
		t.Errorf("in-flight request failed during drain: %d %s", r.status, r.body)
	}
	waitFor(t, func() bool { return s.InFlight() == 0 })
}

// TestSimulateDeadlineFreesStream is the serve-level cancellation
// regression test: a /v1/simulate whose work exceeds the per-request
// deadline must come back 504 promptly — not after draining the whole
// trace — and the shared streamer's ring gauges must be back to zero,
// proving the broadcast released every buffer.
func TestSimulateDeadlineFreesStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: 150 * time.Millisecond})
	req := simulateInlineWalk(t)
	req["max_instrs"] = 1 << 24
	req["algos"] = []string{"orig"}

	start := time.Now()
	status, _, body := post(t, ts.URL+"/v1/simulate", req)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", status, body)
	}
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "deadline_exceeded" {
		t.Errorf("504 envelope = %s (err %v)", body, err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled request took %v; cancellation is not prompt", elapsed)
	}
	if st := s.Streamer().Stats(); st.LiveBuffers != 0 || st.LiveBytes != 0 {
		t.Errorf("stream ring not released after cancel: %+v", st)
	}
}

// TestPanicRecovery injects a handler panic and asserts the 500 envelope.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var recovered any
	s.panicHook = func(v any) { recovered = v }
	s.mux.HandleFunc("/v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	resp, err := http.Get(ts.URL + "/v1/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "internal" {
		t.Errorf("500 envelope = %s (err %v)", body, err)
	}
	if recovered != "kaboom" {
		t.Errorf("panic hook saw %v, want kaboom", recovered)
	}
}

// waitFor polls until cond holds, failing the test after a few seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLRUCacheBounds exercises the cache's entry and byte bounds directly.
func TestLRUCacheBounds(t *testing.T) {
	c := newResultCache(2, 100, nil)
	c.Put("a", bytes.Repeat([]byte{'a'}, 40))
	c.Put("b", bytes.Repeat([]byte{'b'}, 40))
	c.Put("c", bytes.Repeat([]byte{'c'}, 40)) // evicts a (entries fine, bytes 120 > 100)
	if _, ok := c.Get("a"); ok {
		t.Errorf("a survived the byte bound")
	}
	if _, ok := c.Get("b"); !ok {
		t.Errorf("b evicted prematurely")
	}
	// First write wins.
	c.Put("b", []byte("replacement"))
	got, _ := c.Get("b")
	if string(got) == "replacement" {
		t.Errorf("duplicate Put replaced an existing body")
	}
	// Oversized bodies are not cached.
	c.Put("huge", bytes.Repeat([]byte{'h'}, 200))
	if _, ok := c.Get("huge"); ok {
		t.Errorf("oversized body was cached")
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
	// A nil cache is a valid no-op.
	var nilCache *resultCache
	nilCache.Put("x", []byte("y"))
	if _, ok := nilCache.Get("x"); ok {
		t.Errorf("nil cache hit")
	}
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}
