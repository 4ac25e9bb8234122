package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestRunVirtualReportDeterministic(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-mode", "virtual", "-schedule", "constant", "-rps", "100",
		"-duration", "1s", "-corpus", "8", "-workers", "4", "-seed", "2",
		"-max-unexpected", "0",
	}
	runOnce := func(path string) []byte {
		t.Helper()
		if err := run(append(args, "-report", path), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := runOnce(filepath.Join(dir, "a.json"))
	b := runOnce(filepath.Join(dir, "b.json"))
	if !bytes.Equal(a, b) {
		t.Fatal("two identical virtual runs wrote different report files")
	}
	var rep map[string]any
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep["mode"] != "virtual" {
		t.Errorf("mode = %v, want virtual", rep["mode"])
	}
}

func TestRunGatesAndBadFlags(t *testing.T) {
	base := []string{"-mode", "virtual", "-rps", "50", "-duration", "1s", "-corpus", "4"}
	if err := run(append(base, "-min-rps", "1000000"), io.Discard, io.Discard); err == nil {
		t.Error("-min-rps gate did not trip")
	}
	// Injected 429s are backpressure: the unexpected-error gate must pass.
	if err := run(append(base, "-err-every", "5", "-max-unexpected", "0"), io.Discard, io.Discard); err != nil {
		t.Errorf("429 backpressure tripped the unexpected-error gate: %v", err)
	}
	for _, bad := range [][]string{
		{"-mode", "bogus"},
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
