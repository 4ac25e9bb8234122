package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the shard-child entry point: the supervisor spawns
// os.Executable() — in tests, this binary — with BALIGND_CHILD=1, and the
// dispatch below turns that invocation into a real balignd daemon.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := run(os.Args[1:], os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "balignd child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunRejectsBadConfig(t *testing.T) {
	cases := [][]string{
		{"-kernel", "bogus"},
		{"-not-a-flag"},
		{"-shards", "2", "-backends", "http://127.0.0.1:1"},
		{"-backends", "http://ok, "},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v): expected error, got nil", args)
		}
	}
}

// TestRunServesAndDrains boots the daemon on an ephemeral port, exercises
// /healthz and /v1/align over real HTTP, then delivers SIGTERM to the test
// process and asserts run returns cleanly. The signal is only sent after a
// successful health check, i.e. after run has installed its handler.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-drain", "10s",
		}, io.Discard)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for addr file")
		}
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: got %d, want 200", resp.StatusCode)
	}

	asmSrc, err := os.ReadFile(filepath.Join("..", "..", "internal", "serve", "testdata", "sample.asm"))
	if err != nil {
		t.Fatal(err)
	}
	profSrc, err := os.ReadFile(filepath.Join("..", "..", "internal", "serve", "testdata", "sample.prof"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"asm": string(asmSrc), "profile": string(profSrc),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/align", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/align: got %d: %s", resp.StatusCode, out)
	}
	if !json.Valid(out) {
		t.Fatalf("/v1/align: invalid JSON response: %q", out)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}

	if _, err := http.Get(fmt.Sprintf("%s/healthz", base)); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestRunShardedServes boots `balignd -shards 2` — a real supervisor with
// two re-exec'd child daemons and a router front end — and checks routed
// requests succeed, repeat requests hit the owning shard's cache, health
// aggregates across shards, and SIGTERM drains the whole tree.
func TestRunShardedServes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-shards", "2",
			"-drain", "10s",
		}, io.Discard)
	}()

	addr, err := waitForAddrFile(addrFile, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: got %d: %s", resp.StatusCode, health)
	}
	if !strings.Contains(string(health), `"shards":2`) {
		t.Fatalf("/healthz: want 2 shards, got %s", health)
	}

	asmSrc, err := os.ReadFile(filepath.Join("..", "..", "internal", "serve", "testdata", "sample.asm"))
	if err != nil {
		t.Fatal(err)
	}
	profSrc, err := os.ReadFile(filepath.Join("..", "..", "internal", "serve", "testdata", "sample.prof"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"asm": string(asmSrc), "profile": string(profSrc),
	})
	if err != nil {
		t.Fatal(err)
	}

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/v1/align", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}
	r1, out1 := post()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("/v1/align via router: got %d: %s", r1.StatusCode, out1)
	}
	shard1 := r1.Header.Get("X-Balign-Shard")
	if shard1 == "" {
		t.Fatal("routed response missing X-Balign-Shard")
	}
	r2, out2 := post()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("repeat /v1/align: got %d: %s", r2.StatusCode, out2)
	}
	if got := r2.Header.Get("X-Balign-Shard"); got != shard1 {
		t.Errorf("repeat request routed to shard %s, first went to %s", got, shard1)
	}
	if got := r2.Header.Get("X-Balign-Cache"); got != "hit" {
		t.Errorf("repeat request X-Balign-Cache = %q, want hit (per-shard cache should survive routing)", got)
	}
	if !bytes.Equal(out1, out2) {
		t.Error("repeat routed request returned different bytes")
	}

	resp, err = http.Get(base + "/shardz")
	if err != nil {
		t.Fatal(err)
	}
	shardz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sh struct {
		Draining bool `json:"draining"`
		Shards   []struct {
			Status string `json:"status"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(shardz, &sh); err != nil {
		t.Fatalf("/shardz: %v: %s", err, shardz)
	}
	if len(sh.Shards) != 2 {
		t.Fatalf("/shardz: want 2 shards, got %s", shardz)
	}
	for i, s := range sh.Shards {
		if s.Status != "ok" {
			t.Errorf("/shardz: shard %d status %q, want ok", i, s.Status)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sharded run returned error after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sharded run did not return after SIGTERM")
	}
}
