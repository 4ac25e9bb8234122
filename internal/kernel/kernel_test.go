package kernel

import (
	"fmt"
	"strings"
	"testing"

	"balign/internal/asm"
	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
)

// allArchs is every architecture the kernel must match the reference on:
// the full registry, paper grids plus extensions.
func allArchs() []predict.ArchID {
	return predict.AllArchs()
}

// mustAssemble builds and lays out a test program.
func mustAssemble(t testing.TB, src string) *ir.Program {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return prog
}

// recordEvents walks prog with a fixed seed and returns its event stream.
func recordEvents(t testing.TB, prog *ir.Program, maxInstrs uint64) []trace.Event {
	t.Helper()
	var events []trace.Event
	w := &trace.Walker{
		Prog:      prog,
		Model:     trace.UniformModel{P: 0.6},
		Seed:      7,
		MaxInstrs: maxInstrs,
	}
	w.Run(trace.SinkFunc(func(e trace.Event) { events = append(events, e) }), nil)
	return events
}

// profileOf collects an edge profile by walking prog once.
func profileOf(t testing.TB, prog *ir.Program, maxInstrs uint64) *profile.Profile {
	t.Helper()
	col := profile.NewCollector(prog)
	w := &trace.Walker{Prog: prog, Model: trace.UniformModel{P: 0.6}, Seed: 7, MaxInstrs: maxInstrs}
	w.Run(nil, col)
	return col.Profile()
}

// runEvents packs events against the kernel's own layout and feeds them to
// RunBatch in one batch.
func runEvents(t *testing.T, k *Kernel, events []trace.Event) error {
	t.Helper()
	for _, b := range packBatches(t, k.Layout(), events, 1<<16) {
		if err := k.RunBatch(b); err != nil {
			return err
		}
	}
	return nil
}

func TestCompileErrors(t *testing.T) {
	prog := mustAssemble(t, `
proc main
    halt
endproc
`)
	if _, err := Compile(nil, nil, predict.ArchFallthrough, nil); err == nil {
		t.Error("Compile(nil program) succeeded")
	}
	if _, err := Compile(prog, nil, predict.ArchID("no-such-arch"), nil); err == nil {
		t.Error("Compile(unknown arch) succeeded")
	}
	if _, err := Compile(prog, nil, predict.ArchLikely, nil); err == nil {
		t.Error("Compile(likely, nil profile) succeeded")
	}
	if _, err := Compile(prog, profile.New("x"), predict.ArchLikely, nil); err != nil {
		t.Errorf("Compile(likely, empty profile): %v", err)
	}
}

// TestEmptyProcedure compiles a program whose entry immediately halts — no
// control-transfer sites, no events — alongside a dead procedure that is
// never called.
func TestEmptyProcedure(t *testing.T) {
	prog := mustAssemble(t, `
entry main
proc main
    li r1, 1
    halt
endproc
proc dead
    ret
endproc
`)
	prof := profileOf(t, prog, 100)
	events := recordEvents(t, prog, 100)
	if len(events) != 0 {
		t.Fatalf("halt-only entry produced %d events", len(events))
	}
	for _, arch := range allArchs() {
		k, err := Compile(prog, prof, arch, nil)
		if err != nil {
			t.Fatalf("%s: Compile: %v", arch, err)
		}
		// dead's ret is still a compiled site; it just never fires.
		if k.NumSites() != 1 {
			t.Errorf("%s: NumSites = %d, want 1", arch, k.NumSites())
		}
		if err := runEvents(t, k, events); err != nil {
			t.Fatalf("%s: RunBatch: %v", arch, err)
		}
		if res := k.Result(); res != (predict.Result{}) {
			t.Errorf("%s: empty run produced nonzero result %+v", arch, res)
		}
		if costs := k.SiteCosts(); len(costs) != 0 {
			t.Errorf("%s: empty run produced %d active sites", arch, len(costs))
		}
		assertBatchParity(t, prog, prof, arch, events)
	}
}

// TestSingleBlockLoop drives a tight self-loop — one conditional site
// hammered thousands of times — through every architecture.
func TestSingleBlockLoop(t *testing.T) {
	prog := mustAssemble(t, `
proc main
    li   r1, 500
loop:
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`)
	prof := profileOf(t, prog, 5000)
	events := recordEvents(t, prog, 5000)
	if len(events) == 0 {
		t.Fatal("loop produced no events")
	}
	for _, arch := range allArchs() {
		assertBatchParity(t, prog, prof, arch, events)
	}
}

// TestReturnStackOverflow nests calls well past the 32-entry return stack,
// forcing the wrap-around overwrite path, and requires the kernel's return
// stack to mispredict exactly where the reference's does.
func TestReturnStackOverflow(t *testing.T) {
	const depth = 40 // > predict.ReturnStackDepth (32)
	var b strings.Builder
	b.WriteString("entry main\nproc main\n    call f0\n    halt\nendproc\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "proc f%d\n", i)
		if i < depth-1 {
			fmt.Fprintf(&b, "    call f%d\n", i+1)
		} else {
			b.WriteString("    addi r1, r1, 1\n")
		}
		b.WriteString("    ret\nendproc\n")
	}
	prog := mustAssemble(t, b.String())
	prof := profileOf(t, prog, 10_000)

	var events []trace.Event
	w := &trace.Walker{
		Prog:      prog,
		Model:     trace.UniformModel{P: 0.5},
		Seed:      11,
		MaxInstrs: 10_000,
		MaxDepth:  depth + 4, // let the walker actually reach the bottom
	}
	w.Run(trace.SinkFunc(func(e trace.Event) { events = append(events, e) }), nil)

	rets := 0
	for _, e := range events {
		if e.Kind == ir.Ret {
			rets++
		}
	}
	if rets <= 32 {
		t.Fatalf("walk produced only %d returns; want > 32 to exercise overflow", rets)
	}
	for _, arch := range allArchs() {
		assertBatchParity(t, prog, prof, arch, events)
	}

	// The deep call chain must overflow: with 40 nested calls, the oldest
	// return addresses are overwritten, so some returns must mispredict even
	// though every call pushed.
	sim, err := predict.NewSimulator(predict.ArchFallthrough, prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := ReferenceRun(sim, events)
	if res.RetsCorrect >= res.Rets {
		t.Errorf("expected return mispredictions from stack overflow; got %d/%d correct",
			res.RetsCorrect, res.Rets)
	}
}

// TestReset requires a reset kernel to reproduce its first run exactly. Its
// call-in-a-loop program also goes through the batch-cap parity check, so
// conditional, call and return state all carry across one-event batches.
func TestReset(t *testing.T) {
	prog := mustAssemble(t, `
proc main
    li   r1, 200
loop:
    addi r1, r1, -1
    call f
    bnez r1, loop
    halt
endproc
proc f
    addi r2, r2, 1
    ret
endproc
`)
	prof := profileOf(t, prog, 4000)
	events := recordEvents(t, prog, 4000)
	for _, arch := range allArchs() {
		assertBatchParity(t, prog, prof, arch, events)
		k, err := Compile(prog, prof, arch, nil)
		if err != nil {
			t.Fatalf("%s: Compile: %v", arch, err)
		}
		if err := runEvents(t, k, events); err != nil {
			t.Fatalf("%s: RunBatch: %v", arch, err)
		}
		first, firstCosts := k.Result(), k.SiteCosts()
		k.Reset()
		if res := k.Result(); res != (predict.Result{}) {
			t.Fatalf("%s: Reset left result %+v", arch, res)
		}
		if err := runEvents(t, k, events); err != nil {
			t.Fatalf("%s: second RunBatch: %v", arch, err)
		}
		if second := k.Result(); second != first {
			t.Errorf("%s: replay after Reset diverged:\n first  %+v\n second %+v", arch, first, second)
		}
		secondCosts := k.SiteCosts()
		for pc, want := range firstCosts {
			if got := secondCosts[pc]; got != want {
				t.Errorf("%s: site %#x cost after Reset: %+v, want %+v", arch, pc, got, want)
			}
		}
	}
}

// TestSiteCycles checks the cycle accounting identity: summing per-site
// cycles reproduces the result-level branch execution penalty.
func TestSiteCycles(t *testing.T) {
	prog := mustAssemble(t, `
proc main
    li   r1, 300
loop:
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`)
	events := recordEvents(t, prog, 3000)
	for _, arch := range []predict.ArchID{predict.ArchFallthrough, predict.ArchPHTGshare, predict.ArchBTB64} {
		k, err := Compile(prog, nil, arch, nil)
		if err != nil {
			t.Fatalf("%s: Compile: %v", arch, err)
		}
		if err := runEvents(t, k, events); err != nil {
			t.Fatalf("%s: RunBatch: %v", arch, err)
		}
		var sum uint64
		for _, cyc := range k.SiteCycles() {
			sum += cyc
		}
		res := k.Result()
		want := res.Misfetches*predict.DefaultMisfetchPenalty + res.Mispredicts*predict.DefaultMispredictPenalty
		if sum != want {
			t.Errorf("%s: per-site cycles sum %d != result BEP %d", arch, sum, want)
		}
	}
}
