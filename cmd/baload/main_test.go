package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"balign/internal/serve"
)

// newDaemon serves a fresh balignd handler on a loopback listener.
func newDaemon(t *testing.T) string {
	t.Helper()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// statusServer answers every request with status.
func statusServer(t *testing.T, status int) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRunReportAgainstDaemon runs baload twice against fresh daemons: each
// report file is valid JSON with the wall duration and host block, and the
// seeded plan sends the same requests per kind both times.
func TestRunReportAgainstDaemon(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) map[string]any {
		t.Helper()
		args := []string{
			"-base", newDaemon(t), "-schedule", "constant", "-rps", "100",
			"-duration", "300ms", "-corpus", "6", "-workers", "4", "-seed", "2",
			"-mix", "align-asm=2,align-cfg-json=1", "-max-unexpected", "0",
			"-report", path,
		}
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep map[string]any
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatalf("report is not valid JSON: %v", err)
		}
		return rep
	}
	a := runOnce(filepath.Join(dir, "a.json"))
	b := runOnce(filepath.Join(dir, "b.json"))
	for _, rep := range []map[string]any{a, b} {
		if rep["requests"] != 30.0 || rep["ok"] != 30.0 {
			t.Errorf("requests %v ok %v, want 30 and 30", rep["requests"], rep["ok"])
		}
		if wall, _ := rep["wall_dur_ns"].(float64); wall <= 0 {
			t.Errorf("wall_dur_ns = %v, want > 0", rep["wall_dur_ns"])
		}
		if host, _ := rep["host"].(map[string]any); host == nil || host["cpus"] == nil {
			t.Errorf("host = %v, want the host block", rep["host"])
		}
	}
	kindRequests := func(rep map[string]any) map[string]any {
		out := map[string]any{}
		for k, v := range rep["kinds"].(map[string]any) {
			out[k] = v.(map[string]any)["requests"]
		}
		return out
	}
	ka, kb := kindRequests(a), kindRequests(b)
	if len(ka) != 2 || len(ka) != len(kb) {
		t.Fatalf("kinds %v and %v, want both align kinds in each", ka, kb)
	}
	for k, n := range ka {
		if kb[k] != n {
			t.Errorf("kind %s: %v requests, then %v", k, n, kb[k])
		}
	}
}

func TestRunGatesAndBadFlags(t *testing.T) {
	base := []string{"-rps", "50", "-duration", "200ms", "-corpus", "4", "-mix", "align-asm=1"}
	if err := run(append(base, "-base", newDaemon(t), "-min-rps", "1000000"), io.Discard, io.Discard); err == nil {
		t.Error("-min-rps gate did not trip")
	}
	// 429 is backpressure: the unexpected-error gate must pass.
	if err := run(append(base, "-base", statusServer(t, http.StatusTooManyRequests), "-max-unexpected", "0"), io.Discard, io.Discard); err != nil {
		t.Errorf("429 backpressure tripped the unexpected-error gate: %v", err)
	}
	// A 500 is not.
	if err := run(append(base, "-base", statusServer(t, http.StatusInternalServerError), "-max-unexpected", "0"), io.Discard, io.Discard); err == nil {
		t.Error("500s did not trip the unexpected-error gate")
	}
	for _, bad := range [][]string{
		{"-mode", "real"},
		{"-err-every", "5"},
		{"-schedule", "bogus"},
		{"-mix", "nope=1"},
		{"-mix", "align-asm"},
		{"-rps", "-5"},
		{"-corpus", "0"},
		{"-schedule", "ramp", "-slot", "0s"},
		{"-schedule", "burst", "-slot", "0s"},
		{"-schedule", "burst", "-slot", "-1s"},
	} {
		if err := run(bad, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v): expected error, got nil", bad)
		}
	}
}
