package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleAsm is balignd's fixture program; sampleProf is its committed
// profile, which batrace -prog prints byte for byte.
const (
	sampleAsm  = "../../internal/serve/testdata/sample.asm"
	sampleProf = "../../internal/serve/testdata/sample.prof"
)

func TestRunProgFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-prog", sampleAsm}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	want, err := os.ReadFile(sampleProf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("profile differs from %s\n got: %s\nwant: %s", sampleProf, stdout.Bytes(), want)
	}
}

// TestGolden pins every output of one run: the profile, the -stats lines
// and the -events file (by length and SHA-256), for an assembly file, a VM
// kernel and a walked synthetic program. The golden is
// testdata/golden/<name>.txt, rewritten under -update.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"sample", []string{"-prog", sampleAsm}},
		{"espresso", []string{"-bench", "espresso", "-scale", "0.02"}},
		{"ora", []string{"-bench", "ora", "-scale", "0.02"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evPath := filepath.Join(t.TempDir(), "events")
			var stdout, stderr bytes.Buffer
			if err := run(append(tc.args, "-stats", "-events", evPath), &stdout, &stderr); err != nil {
				t.Fatalf("run: %v", err)
			}
			events, err := os.ReadFile(evPath)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Appendf(nil, "profile:\n%sstats:\n%sevents: %d bytes, sha256 %x\n",
				stdout.Bytes(), stderr.Bytes(), len(events), sha256.Sum256(events))
			path := filepath.Join("testdata", "golden", tc.name+".txt")
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
				t.Errorf("output differs from golden (run with -update after intended changes)\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

func TestRunBenchToFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "w.prof")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bench", "ora", "-scale", "0.02", "-o", out}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pf, err := profile.Read(f)
	if err != nil {
		t.Fatalf("profile unreadable: %v", err)
	}
	if len(pf.Procs) == 0 {
		t.Error("profile has no procedures")
	}
}

func TestRunArgErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{},
		{"-prog", "a.asm", "-bench", "ora"},
		{"-bench", "not-a-benchmark"},
		{"-prog", "does-not-exist.asm"},
	} {
		if err := run(args, &buf, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunEventsFile(t *testing.T) {
	dir := t.TempDir()
	progPath := filepath.Join(dir, "p.asm")
	src := "mem 8\nproc main\n li r1, 9\nloop:\n addi r1, r1, -1\n bnez r1, loop\n halt\nendproc\n"
	if err := os.WriteFile(progPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	evPath := filepath.Join(dir, "p.trc")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-prog", progPath, "-events", evPath, "-o", filepath.Join(dir, "p.prof")}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(evPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var taken, fall int
	if err := trace.ReadFile(f, func(e trace.Event) error {
		if e.Kind == ir.CondBr {
			if e.Taken {
				taken++
			} else {
				fall++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if taken != 8 || fall != 1 {
		t.Errorf("replayed taken/fall = %d/%d, want 8/1", taken, fall)
	}
}
