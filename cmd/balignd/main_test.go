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

func TestRunRejectsBadConfig(t *testing.T) {
	cases := [][]string{
		{"-not-a-flag"},
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
