package kernel

import (
	"fmt"
	"reflect"
	"testing"

	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
)

// packBatches encodes events against lay into batches of at most batchCap
// ops each, mimicking what a streaming source produces.
func packBatches(t *testing.T, lay *trace.Layout, events []trace.Event, batchCap int) []*trace.Batch {
	t.Helper()
	var batches []*trace.Batch
	cur := &trace.Batch{}
	for _, e := range events {
		if err := lay.Append(cur, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if cur.Len() >= batchCap {
			batches = append(batches, cur)
			cur = &trace.Batch{}
		}
	}
	if cur.Len() > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// TestCounterStepMatchesUpdate holds the packed branchless transition table
// to the reference 2-bit saturating counter, state for state and outcome for
// outcome.
func TestCounterStepMatchesUpdate(t *testing.T) {
	for c := predict.Counter2(0); c < 4; c++ {
		for bit := uint8(0); bit < 2; bit++ {
			if got, want := counterStepBit(c, bit), c.Update(bit == 1); got != want {
				t.Errorf("counterStepBit(%d, %d) = %d, want %d", c, bit, got, want)
			}
		}
	}
}

// assertBatchParity packs events into batches at several granularities,
// including cap 1 (every event its own batch — maximal state-carry
// stress), runs each packing through a fresh kernel's RunBatch, and
// requires results, per-site costs and per-site cycles identical to the
// reference simulator fed the events one by one.
func assertBatchParity(t *testing.T, prog *ir.Program, prof *profile.Profile, arch predict.ArchID, events []trace.Event) {
	t.Helper()
	sim, err := predict.NewSimulator(arch, prog, prof)
	if err != nil {
		t.Fatalf("%s: NewSimulator: %v", arch, err)
	}
	rec := NewSiteRecorder(sim)
	for i := range events {
		rec.Event(events[i])
	}
	wantRes := sim.Result()

	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatalf("CompileLayout: %v", err)
	}
	for _, batchCap := range []int{1, 7, 256, 1 << 16} {
		k, err := CompileArch(lay, prog, prof, arch, nil)
		if err != nil {
			t.Fatalf("%s: CompileArch: %v", arch, err)
		}
		for _, b := range packBatches(t, lay, events, batchCap) {
			if err := k.RunBatch(b); err != nil {
				t.Fatalf("%s cap=%d: RunBatch: %v", arch, batchCap, err)
			}
		}
		if got := k.Result(); got != wantRes {
			t.Errorf("%s cap=%d: Result mismatch:\n kernel    %+v\n reference %+v", arch, batchCap, got, wantRes)
		}
		if got := k.SiteCosts(); !reflect.DeepEqual(got, rec.Costs) {
			t.Errorf("%s cap=%d: per-site costs diverge (%d kernel sites, %d reference sites)",
				arch, batchCap, len(got), len(rec.Costs))
		}
		if got := k.SiteCycles(); !reflect.DeepEqual(got, rec.Cycles()) {
			t.Errorf("%s cap=%d: per-site cycles diverge", arch, batchCap)
		}
	}
}

// TestKernelsShareLayout compiles every architecture against one layout and
// runs them over the same batches — the fan-out shape the broadcast stage
// uses — requiring each to match the reference simulator.
func TestKernelsShareLayout(t *testing.T) {
	prog := mustAssemble(t, `
proc main
    li   r1, 5
loop:
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`)
	prof := profileOf(t, prog, 500)
	events := recordEvents(t, prog, 500)
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	batches := packBatches(t, lay, events, 64)
	for _, arch := range allArchs() {
		shared, err := CompileArch(lay, prog, prof, arch, nil)
		if err != nil {
			t.Fatalf("%s: CompileArch: %v", arch, err)
		}
		for _, b := range batches {
			if err := shared.RunBatch(b); err != nil {
				t.Fatalf("%s: RunBatch: %v", arch, err)
			}
		}
		sim, err := predict.NewSimulator(arch, prog, prof)
		if err != nil {
			t.Fatalf("%s: NewSimulator: %v", arch, err)
		}
		if want, _ := ReferenceRun(sim, events); shared.Result() != want {
			t.Errorf("%s: shared-layout kernel diverges from the reference:\n kernel    %+v\n reference %+v",
				arch, shared.Result(), want)
		}
	}
}

// TestRunBatchErrors: ops from a different layout, with missing dynamic
// targets or with surplus ones must fail, and a valid batch must still work
// afterwards.
func TestRunBatchErrors(t *testing.T) {
	prog := mustAssemble(t, `
proc main
    li   r1, 2
loop:
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`)
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	k, err := CompileArch(lay, prog, nil, predict.ArchFallthrough, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Site id far out of range.
	bad := &trace.Batch{Ops: []int32{9999 << trace.OpShift}}
	if err := k.RunBatch(bad); err == nil {
		t.Error("RunBatch accepted an out-of-range site id")
	}
	// Kind bits disagreeing with the compiled site.
	wrongKind := &trace.Batch{Ops: []int32{0<<trace.OpShift | int32(ir.Ret)<<1 | 1}}
	if err := k.RunBatch(wrongKind); err == nil {
		t.Error("RunBatch accepted a kind mismatch")
	}
	// A well-formed op plus a dynamic target no op consumes.
	cbr := int32(-1)
	for i, s := range lay.Sites() {
		if s.Kind == ir.CondBr {
			cbr = int32(i)
		}
	}
	surplus := &trace.Batch{Ops: []int32{cbr<<trace.OpShift | int32(ir.CondBr)<<1 | 1}, Targets: []uint64{0x1000}}
	if err := k.RunBatch(surplus); err == nil {
		t.Error("RunBatch accepted a dynamic target no op consumes")
	}
	// A Ret op with no dynamic target. The program has no ret, so borrow a
	// second program to build one against its own layout and feed it here.
	retProg := mustAssemble(t, `
proc main
    call f
    halt
endproc
proc f
    ret
endproc
`)
	retLay, err := trace.CompileLayout(retProg)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := CompileArch(retLay, retProg, nil, predict.ArchBTB64, nil)
	if err != nil {
		t.Fatal(err)
	}
	retSite := int32(-1)
	for i, s := range retLay.Sites() {
		if s.Kind == ir.Ret {
			retSite = int32(i)
		}
	}
	if retSite < 0 {
		t.Fatal("no ret site compiled")
	}
	noTarget := &trace.Batch{Ops: []int32{retSite<<trace.OpShift | int32(ir.Ret)<<1 | 1}}
	if err := rk.RunBatch(noTarget); err == nil {
		t.Error("RunBatch accepted a ret op with no dynamic target")
	}
	// A valid batch still works after the failures above.
	events := recordEvents(t, prog, 100)
	for i, b := range packBatches(t, lay, events, 1<<16) {
		if err := k.RunBatch(b); err != nil {
			t.Errorf("valid batch %d after errors: %v", i, err)
		}
	}
	if k.Result().Events == 0 {
		t.Error(fmt.Errorf("valid batch accumulated nothing"))
	}
}
