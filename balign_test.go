package balign_test

import (
	"strings"
	"testing"

	"balign"
	"balign/internal/predict"
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
