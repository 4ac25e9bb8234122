package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balign/internal/asm"
	"balign/internal/cfgio"
	"balign/internal/core"
	"balign/internal/profile"
	"balign/internal/vm"
)

var update = flag.Bool("update", false, "rewrite golden files")

// cfgFixture is the committed real-shaped CFG document (a simplified
// pprof-derived Go runtime scan loop) shared by the cmd-level golden tests.
const cfgFixture = "../../testdata/cfg/go_scanobject.dot"

// checkGolden compares got to testdata/golden/<name>, rewriting under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
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
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden (run with -update after intended changes)\n got: %s\nwant: %s",
			name, got, want)
	}
}

// TestGoldenCFGAlign pins the end-to-end CFG front door: align the committed
// fixture and emit the transformed program plus transferred profile as a
// DOT document. The emitted document must re-import (the transfer preserves
// validity) and re-export byte-identically (the encoding is canonical).
func TestGoldenCFGAlign(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-cfg", cfgFixture, "-algo", "tryn", "-arch", "btfnt", "-emit", "dot"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	checkGolden(t, "cfg_aligned.dot", stdout.Bytes())

	prog, pf, err := cfgio.Import(stdout.Bytes())
	if err != nil {
		t.Fatalf("aligned CFG document does not re-import: %v", err)
	}
	again, err := cfgio.ExportDOT(prog, pf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, stdout.Bytes()) {
		t.Errorf("aligned CFG document is not byte-stable under re-import/re-export\n got: %s\nwant: %s",
			again, stdout.Bytes())
	}
}

const testSrc = `
mem 16
proc main
    li r1, 100
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`

// writeFixture assembles, profiles and writes both files to dir.
func writeFixture(t *testing.T, dir string) (progPath, profPath string) {
	t.Helper()
	progPath = filepath.Join(dir, "p.asm")
	if err := os.WriteFile(progPath, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector(prog)
	if _, err := vm.New(prog).Run(nil, col); err != nil {
		t.Fatal(err)
	}
	profPath = filepath.Join(dir, "p.prof")
	f, err := os.Create(profPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Profile().WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return progPath, profPath
}

func TestRunAlignsAndWritesAssembly(t *testing.T) {
	dir := t.TempDir()
	progPath, profPath := writeFixture(t, dir)
	outPath := filepath.Join(dir, "out.asm")

	var stdout, stderr bytes.Buffer
	err := run([]string{"-prog", progPath, "-profile", profPath,
		"-algo", "tryn", "-arch", "fallthrough", "-v", "-o", outPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "layout cost") {
		t.Errorf("verbose output missing: %s", stderr.String())
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	// The transformed output must reassemble and still execute to the same
	// result.
	prog2, err := asm.Assemble(string(out))
	if err != nil {
		t.Fatalf("output does not reassemble: %v\n%s", err, out)
	}
	m := vm.New(prog2)
	if _, err := m.Run(nil, nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(2) != 100 {
		t.Errorf("aligned program computed r2 = %d, want 100", m.Reg(2))
	}
}

func TestRunToStdout(t *testing.T) {
	dir := t.TempDir()
	progPath, profPath := writeFixture(t, dir)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-prog", progPath, "-profile", profPath, "-algo", "greedy"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "proc main") {
		t.Errorf("stdout missing assembly: %s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	progPath, profPath := writeFixture(t, dir)
	var out bytes.Buffer
	cases := [][]string{
		{},
		{"-prog", progPath},
		{"-prog", progPath, "-profile", profPath, "-algo", "bogus"},
		{"-prog", progPath, "-profile", profPath, "-arch", "bogus"},
		{"-prog", progPath, "-profile", profPath, "-order", "bogus"},
		{"-prog", filepath.Join(dir, "missing.asm"), "-profile", profPath},
		{"-prog", progPath, "-profile", filepath.Join(dir, "missing.prof")},
	}
	for _, args := range cases {
		if err := run(args, &out, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunAlgorithmNames: -algo accepts every core algorithm name and names
// an unknown one in its error.
func TestRunAlgorithmNames(t *testing.T) {
	dir := t.TempDir()
	progPath, profPath := writeFixture(t, dir)
	var out bytes.Buffer
	for _, algo := range core.Algorithms() {
		if err := run([]string{"-prog", progPath, "-profile", profPath, "-algo", string(algo)}, &out, &out); err != nil {
			t.Errorf("-algo %s: %v", algo, err)
		}
	}
	err := run([]string{"-prog", progPath, "-profile", profPath, "-algo", "bogus"}, &out, &out)
	if err == nil || err.Error() != `unknown algorithm "bogus"` {
		t.Errorf("-algo bogus: err = %v", err)
	}
}
