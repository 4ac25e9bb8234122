package balign_test

import (
	"strings"
	"testing"

	"balign"
	"balign/internal/predict"
	"balign/internal/vm"
)

const quickSrc = `
mem 64
proc main
    li r1, 500
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`

func TestFacadeEndToEnd(t *testing.T) {
	prog, err := balign.Assemble(quickSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	prof, origInstrs, err := balign.ProfileVM(prog, nil)
	if err != nil {
		t.Fatalf("ProfileVM: %v", err)
	}
	if origInstrs == 0 || prof.TotalEdgeWeight() == 0 {
		t.Fatal("profiling produced nothing")
	}

	res, err := balign.Align(prog, prof, balign.Options{
		Algorithm: balign.AlgoTryN,
		Model:     balign.ModelFallthrough,
	})
	if err != nil {
		t.Fatalf("Align: %v", err)
	}

	before, _, err := balign.SimulateVM(balign.ArchFallthrough, prog, prof, nil)
	if err != nil {
		t.Fatalf("SimulateVM before: %v", err)
	}
	after, alignedInstrs, err := balign.SimulateVM(balign.ArchFallthrough, res.Prog, res.Prof, nil)
	if err != nil {
		t.Fatalf("SimulateVM after: %v", err)
	}

	cpiBefore := balign.RelativeCPI(origInstrs, origInstrs, balign.BEP(before))
	cpiAfter := balign.RelativeCPI(origInstrs, alignedInstrs, balign.BEP(after))
	if cpiAfter >= cpiBefore {
		t.Errorf("alignment did not improve CPI: %.3f -> %.3f", cpiBefore, cpiAfter)
	}
	if balign.LayoutCost(res.Prog, res.Prof, balign.ModelFallthrough) >=
		balign.LayoutCost(prog, prof, balign.ModelFallthrough) {
		t.Error("alignment did not reduce layout cost")
	}
}

// TestFacadeRunSuiteUnknownArch: an unregistered architecture is an error
// that names every registered one, returned before any work starts, both
// with one program and with several on the engine's workers.
func TestFacadeRunSuiteUnknownArch(t *testing.T) {
	for _, programs := range [][]string{{"compress"}, {"compress", "ora"}} {
		_, err := balign.RunSuite(balign.SuiteOptions{
			Programs: programs, Scale: 0.01, Archs: []balign.ArchID{"nope"}, Parallelism: 2,
		})
		if err == nil || !strings.Contains(err.Error(), `"nope"`) {
			t.Fatalf("%v: err = %v; want an unknown-architecture error", programs, err)
		}
		for _, name := range predict.KnownArchNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%v: error %q does not name %s", programs, err, name)
			}
		}
	}
}

func TestFacadeModelFor(t *testing.T) {
	for _, arch := range []balign.ArchID{
		balign.ArchFallthrough, balign.ArchBTFNT, balign.ArchLikely,
		balign.ArchPHTDirect, balign.ArchPHTGshare, balign.ArchBTB64, balign.ArchBTB256,
	} {
		if _, err := balign.ModelFor(arch); err != nil {
			t.Errorf("ModelFor(%s): %v", arch, err)
		}
	}
}

func TestFacadeMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble of garbage did not panic")
		}
	}()
	balign.MustAssemble("not a program")
}

func TestFacadeLikelyNeedsProfile(t *testing.T) {
	prog := balign.MustAssemble(quickSrc)
	if _, _, err := balign.SimulateVM(balign.ArchLikely, prog, nil, nil); err == nil {
		t.Error("LIKELY simulation without a profile should error")
	}
}

func TestFacadeUnrollAndReorder(t *testing.T) {
	src := `
mem 16
proc main
    li r1, 500
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bnez r1, loop
    call helper
    halt
endproc
proc helper
    addi r3, r3, 1
    ret
endproc
`
	prog := balign.MustAssemble(src)
	prof, _, err := balign.ProfileVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	up, uprof, stats, err := balign.Unroll(prog, prof, balign.DefaultUnrollOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoopsUnrolled != 1 {
		t.Errorf("LoopsUnrolled = %d, want 1", stats.LoopsUnrolled)
	}
	res, err := balign.Align(up, uprof, balign.Options{
		Algorithm: balign.AlgoTryN, Model: balign.ModelFallthrough,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := balign.SimulateVM(balign.ArchFallthrough, res.Prog, res.Prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cond == 0 {
		t.Fatal("no conditionals simulated")
	}

	ro, err := balign.ReorderProcedures(prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Procs[0].Name != "main" {
		t.Errorf("entry proc moved to %q", ro.Procs[0].Name)
	}
}

// alvinnSrc and alvinnSetup are examples/alvinn's program and input. Its
// inner loop is a single block, so Unroll has work.
const alvinnSrc = `
mem 8192
proc main
    li r20, 10
pass:
    call input_hidden
    addi r20, r20, -1
    bnez r20, pass
    halt
endproc

proc input_hidden
    li r1, 0
    li r11, 960
iloop:
    ld r5, 0(r1)
    add r6, r4, r1
    andi r6, r6, 4095
    ld r7, 0(r6)
    mul r8, r5, r7
    add r3, r3, r8
    mov r12, r3
    add r13, r12, r5
    xor r13, r13, r7
    addi r1, r1, 1
    blt r1, r11, iloop
    ret
endproc
`

func alvinnSetup(v *balign.VM) {
	words := make([]int64, 4096)
	for i := range words {
		words[i] = int64(i%97 - 48)
	}
	v.SetMem(0, words)
}

// scanSrc branches on its input, which alvinn does not: scan counts the
// nonzero words scanSetup stores, so a run without the setup takes other
// branches.
const scanSrc = `
mem 256
proc main
    li r20, 8
pass:
    call scan
    addi r20, r20, -1
    bnez r20, pass
    halt
endproc

proc scan
    li r1, 0
    li r11, 128
sloop:
    ld r5, 0(r1)
    beqz r5, skip
    addi r3, r3, 1
skip:
    addi r1, r1, 1
    blt r1, r11, sloop
    ret
endproc
`

func scanSetup(v *balign.VM) {
	words := make([]int64, 128)
	for i := range words {
		words[i] = int64(i % 3)
	}
	v.SetMem(0, words)
}

// referenceVM is the public API's oracle: vm.Run feeding a reference
// simulator event by event.
func referenceVM(t *testing.T, arch balign.ArchID, prog *balign.Program, prof *balign.Profile, setup func(*balign.VM)) (balign.SimResult, uint64) {
	t.Helper()
	sim, err := predict.NewSimulator(arch, prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(prog)
	if setup != nil {
		setup(machine)
	}
	res, err := machine.Run(sim, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Result(), res.Instrs
}

// TestSimulateVMMatchesReference holds SimulateVM, the flat kernel on a
// replayed decision log, to the reference path with the same setup, under
// every registered architecture: on the original program, on its layouts
// from each algorithm (Cost and TryN under the architecture's model) and
// on the unrolled program aligned by TryN.
func TestSimulateVMMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		setup func(*balign.VM)
	}{
		{"alvinn", alvinnSrc, alvinnSetup},
		{"scan", scanSrc, scanSetup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := balign.MustAssemble(tc.src)
			prof, _, err := balign.ProfileVM(prog, tc.setup)
			if err != nil {
				t.Fatal(err)
			}
			align := func(prog *balign.Program, prof *balign.Profile, opts balign.Options) *balign.AlignResult {
				res, err := balign.Align(prog, prof, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			up, uprof, _, err := balign.Unroll(prog, prof, balign.DefaultUnrollOptions())
			if err != nil {
				t.Fatal(err)
			}
			greedy := align(prog, prof, balign.Options{Algorithm: balign.AlgoGreedy})
			exttsp := align(prog, prof, balign.Options{Algorithm: balign.AlgoExtTSP})
			for _, arch := range predict.AllArchs() {
				m, err := balign.ModelFor(arch)
				if err != nil {
					t.Fatal(err)
				}
				cost := align(prog, prof, balign.Options{Algorithm: balign.AlgoCost, Model: m})
				tryn := align(prog, prof, balign.Options{Algorithm: balign.AlgoTryN, Model: m})
				unrolled := align(up, uprof, balign.Options{Algorithm: balign.AlgoTryN, Model: m})
				for _, l := range []struct {
					name string
					prog *balign.Program
					prof *balign.Profile
				}{
					{"orig", prog, prof},
					{"greedy", greedy.Prog, greedy.Prof},
					{"exttsp", exttsp.Prog, exttsp.Prof},
					{"cost", cost.Prog, cost.Prof},
					{"tryn", tryn.Prog, tryn.Prof},
					{"unroll+tryn", unrolled.Prog, unrolled.Prof},
				} {
					got, n, err := balign.SimulateVM(arch, l.prog, l.prof, tc.setup)
					if err != nil {
						t.Fatalf("%s/%s: %v", arch, l.name, err)
					}
					want, wantN := referenceVM(t, arch, l.prog, l.prof, tc.setup)
					if got != want || n != wantN {
						t.Errorf("%s/%s: SimulateVM = %+v, %d instructions; reference %+v, %d", arch, l.name, got, n, want, wantN)
					}
				}
			}
		})
	}
	// The setup reaches scan's branches, so the comparison above fails
	// when SimulateVM drops it.
	prog := balign.MustAssemble(scanSrc)
	with, _ := referenceVM(t, balign.ArchFallthrough, prog, nil, scanSetup)
	without, _ := referenceVM(t, balign.ArchFallthrough, prog, nil, nil)
	if with == without {
		t.Fatal("scan's branches do not depend on its setup")
	}
}
