package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden pins the example's standard output byte for byte against
// testdata/golden/stdout.txt, rewriting it under -update.
func TestGolden(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "stdout.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from golden (run with -update after intended changes)\n got: %s\nwant: %s", got, want)
	}
}
