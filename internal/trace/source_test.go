package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"balign/internal/ir"
	"balign/internal/trace"
	"balign/internal/workload"
)

// drainSource pulls src dry, decoding every batch through lay into a flat
// event slice. batchCap only bounds the buffer the caller hands in; the
// source's own capacity governs batch sizes.
func drainSource(t *testing.T, lay *trace.Layout, src trace.Source) []trace.Event {
	t.Helper()
	var events []trace.Event
	var b trace.Batch
	for {
		ok, err := src.Fill(&b)
		if err != nil {
			t.Fatalf("Fill: %v", err)
		}
		if !ok {
			if b.Len() != 0 {
				t.Fatalf("exhausted Fill returned a non-empty batch (%d events)", b.Len())
			}
			return events
		}
		if b.Len() == 0 {
			t.Fatal("Fill returned ok with an empty batch")
		}
		if err := lay.Decode(&b, func(e trace.Event) { events = append(events, e) }); err != nil {
			t.Fatalf("Decode: %v", err)
		}
	}
}

// walkParityCase runs Walker and WalkSource over the same spec and requires
// byte-identical decoded events plus matching instruction and run counts.
func walkParityCase(t *testing.T, w *trace.Walker, batchCap int) {
	t.Helper()
	var rec trace.Recorder
	// WalkSource captures the walker spec at construction, so build an
	// identical copy for the reference run (Run mutates nothing, but the
	// shared Model may be stateful — these cases use stateless models).
	ref := *w
	wantInstrs, wantRuns := ref.Run(&rec, nil)

	lay, err := trace.CompileLayout(w.Prog)
	if err != nil {
		t.Fatalf("CompileLayout: %v", err)
	}
	src, err := trace.NewWalkSource(w, lay, batchCap)
	if err != nil {
		t.Fatalf("NewWalkSource: %v", err)
	}
	defer src.Close()
	got := drainSource(t, lay, src)

	if src.Instrs() != wantInstrs {
		t.Errorf("instrs: source %d, walker %d", src.Instrs(), wantInstrs)
	}
	if src.Runs() != wantRuns {
		t.Errorf("runs: source %d, walker %d", src.Runs(), wantRuns)
	}
	if err := compareEvents(rec.Events, got); err != nil {
		t.Errorf("cap=%d: %v", batchCap, err)
	}
}

// TestWalkSourceMatchesWalkerSynthetic drives the compiled streaming walker
// over hand-built control-flow shapes — loops, calls, indirect jumps,
// depth-capped recursion — across seeds and batch capacities, requiring the
// decoded stream to equal the Walker's exactly.
func TestWalkSourceMatchesWalkerSynthetic(t *testing.T) {
	progs := map[string]*ir.Program{
		"loop":  loopTestProgram(),
		"calls": callTestProgram(),
		"ijump": ijumpTestProgram(),
		"rec":   recursiveTestProgram(),
	}
	for name, prog := range progs {
		for _, seed := range []int64{1, 7, 99} {
			for _, cap := range []int{1, 7, 64, 8192} {
				t.Run(fmt.Sprintf("%s/seed%d/cap%d", name, seed, cap), func(t *testing.T) {
					w := &trace.Walker{
						Prog: prog, Model: trace.UniformModel{P: 0.6},
						Seed: seed, MaxInstrs: 5000, MaxDepth: 8,
					}
					walkParityCase(t, w, cap)
				})
			}
		}
	}
}

// TestWalkSourceMatchesWalkerSuite repeats the parity check over the real
// experiment suite's synthetic programs (randomized structure per seed).
func TestWalkSourceMatchesWalkerSuite(t *testing.T) {
	for _, seed := range []int64{0, 3} {
		ws, err := workload.Suite(workload.Config{Scale: 0.02, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			t.Run(fmt.Sprintf("%s/seed%d", w.Name, seed), func(t *testing.T) {
				walker := &trace.Walker{
					Prog: w.Prog, Model: trace.UniformModel{P: 0.55},
					Seed: seed*31 + 5, MaxInstrs: 20_000,
				}
				walkParityCase(t, walker, 512)
			})
		}
	}
}

// TestWalkSourceTruncationBoundaries sweeps tiny instruction budgets so
// every stop position — mid straight-line run, on a transfer, on a restart —
// is exercised against the Walker's exact semantics.
func TestWalkSourceTruncationBoundaries(t *testing.T) {
	progs := map[string]*ir.Program{
		"loop": loopTestProgram(), "calls": callTestProgram(), "rec": recursiveTestProgram(),
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			for budget := uint64(1); budget <= 40; budget++ {
				w := &trace.Walker{
					Prog: prog, Model: trace.UniformModel{P: 0.5},
					Seed: int64(budget), MaxInstrs: budget, MaxDepth: 4,
				}
				walkParityCase(t, w, 3)
			}
		})
	}
}

// TestWalkSourceMaxRuns checks the work-equivalence stop condition: the
// source must stop after exactly MaxRuns complete runs, like the Walker.
func TestWalkSourceMaxRuns(t *testing.T) {
	for _, maxRuns := range []int{1, 2, 7} {
		w := &trace.Walker{
			Prog: loopTestProgram(), Model: trace.UniformModel{P: 0.0},
			Seed: 1, MaxInstrs: 1 << 30, MaxRuns: maxRuns,
		}
		walkParityCase(t, w, 16)
	}
}

// TestFuncSourceMatchesGen streams a push-style generator (here the Walker
// itself driving a Sink) through NewFuncSource and requires the decoded
// batches to reproduce the generator's stream and instruction count.
func TestFuncSourceMatchesGen(t *testing.T) {
	prog := callTestProgram()
	mk := func() *trace.Walker {
		return &trace.Walker{Prog: prog, Model: trace.UniformModel{P: 0.7}, Seed: 11, MaxInstrs: 3000}
	}
	var rec trace.Recorder
	wantInstrs, _ := mk().Run(&rec, nil)

	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewFuncSource(lay, 64, func(sink trace.Sink) (uint64, error) {
		instrs, _ := mk().Run(sink, nil)
		return instrs, nil
	})
	defer src.Close()
	got := drainSource(t, lay, src)
	if err := compareEvents(rec.Events, got); err != nil {
		t.Error(err)
	}
	if src.Instrs() != wantInstrs {
		t.Errorf("instrs: source %d, generator %d", src.Instrs(), wantInstrs)
	}
}

// TestFuncSourceEarlyClose abandons a stream mid-way; the source must not
// deadlock its generator goroutine and repeated Close must be safe.
func TestFuncSourceEarlyClose(t *testing.T) {
	prog := loopTestProgram()
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	genDone := make(chan struct{})
	src := trace.NewFuncSource(lay, 8, func(sink trace.Sink) (uint64, error) {
		defer close(genDone)
		w := &trace.Walker{Prog: prog, Model: trace.UniformModel{P: 0.9}, Seed: 2, MaxInstrs: 100_000}
		instrs, _ := w.Run(sink, nil)
		return instrs, nil
	})
	var b trace.Batch
	if ok, err := src.Fill(&b); !ok || err != nil {
		t.Fatalf("first Fill = %v, %v", ok, err)
	}
	src.Close()
	src.Close()
	<-genDone // generator must run to completion, discarding events
}

// TestFuncSourceGenError propagates a generator failure through Fill.
func TestFuncSourceGenError(t *testing.T) {
	lay, err := trace.CompileLayout(loopTestProgram())
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewFuncSource(lay, 8, func(trace.Sink) (uint64, error) {
		return 0, fmt.Errorf("generator exploded")
	})
	defer src.Close()
	var b trace.Batch
	for {
		ok, err := src.Fill(&b)
		if ok {
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "generator exploded") {
			t.Fatalf("Fill error = %v, want generator failure", err)
		}
		return
	}
}

// TestFuncSourceLayoutMismatch: a generator emitting an event the layout
// does not know must fail the stream with the encoding error.
func TestFuncSourceLayoutMismatch(t *testing.T) {
	lay, err := trace.CompileLayout(loopTestProgram())
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewFuncSource(lay, 8, func(sink trace.Sink) (uint64, error) {
		sink.Event(trace.Event{PC: 0x9999_0000, Kind: ir.CondBr})
		return 1, nil
	})
	defer src.Close()
	var b trace.Batch
	for {
		ok, err := src.Fill(&b)
		if ok {
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "control-transfer site") {
			t.Fatalf("Fill error = %v, want layout-mismatch failure", err)
		}
		return
	}
}

// TestLayoutAppendDecodeRoundTrip packs a real walked stream through
// Layout.Append and requires Decode to reproduce it field for field.
func TestLayoutAppendDecodeRoundTrip(t *testing.T) {
	for name, prog := range map[string]*ir.Program{
		"calls": callTestProgram(), "ijump": ijumpTestProgram(),
	} {
		t.Run(name, func(t *testing.T) {
			var rec trace.Recorder
			w := &trace.Walker{Prog: prog, Model: trace.UniformModel{P: 0.4}, Seed: 9, MaxInstrs: 2000}
			w.Run(&rec, nil)
			if len(rec.Events) == 0 {
				t.Fatal("no events")
			}
			lay, err := trace.CompileLayout(prog)
			if err != nil {
				t.Fatal(err)
			}
			var b trace.Batch
			for _, e := range rec.Events {
				if err := lay.Append(&b, e); err != nil {
					t.Fatalf("Append(%+v): %v", e, err)
				}
			}
			var got []trace.Event
			if err := lay.Decode(&b, func(e trace.Event) { got = append(got, e) }); err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if err := compareEvents(rec.Events, got); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLayoutAppendRejectsMismatches: events that do not fit the compiled
// program — unknown or unaligned PC, wrong kind, impossible target — must be
// rejected.
func TestLayoutAppendRejectsMismatches(t *testing.T) {
	prog := callTestProgram()
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	w := &trace.Walker{Prog: prog, Model: trace.UniformModel{P: 0.5}, Seed: 1, MaxInstrs: 50}
	w.Run(&rec, nil)
	if len(rec.Events) == 0 {
		t.Fatal("no events")
	}
	good := rec.Events[0]
	cases := map[string]trace.Event{
		"unknown pc":   {PC: 0xdead_0000, Kind: good.Kind, Target: good.Target},
		"unaligned pc": {PC: good.PC + 1, Kind: good.Kind, Target: good.Target},
		"wrong kind": func() trace.Event {
			e := good
			if e.Kind == ir.Ret {
				e.Kind = ir.Call
			} else {
				e.Kind = ir.Ret
			}
			return e
		}(),
		"wrong target": func() trace.Event {
			e := good
			e.Kind = good.Kind
			e.Target = good.Target + 4096
			return e
		}(),
	}
	for name, ev := range cases {
		if ev.Kind == ir.IJump || ev.Kind == ir.Ret {
			continue // dynamic-target kinds accept any target by design
		}
		var b trace.Batch
		if err := lay.Append(&b, ev); err == nil {
			t.Errorf("%s: Append accepted %+v", name, ev)
		}
	}
}

// TestLayoutDecodeRejectsMalformedBatches: Decode must reject a batch the
// layout could not have packed — an op whose kind bits disagree with its
// site, a site id out of range, a missing or a surplus dynamic target —
// with the same rule the simulation kernel applies.
func TestLayoutDecodeRejectsMalformedBatches(t *testing.T) {
	prog := callTestProgram()
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	siteOf := func(kind ir.Kind) int32 {
		for i, s := range lay.Sites() {
			if s.Kind == kind {
				return int32(i)
			}
		}
		t.Fatalf("no %v site compiled", kind)
		return -1
	}
	op := func(si int32, kind ir.Kind) int32 { return si<<trace.OpShift | int32(kind)<<1 | 1 }
	cbr, ret := siteOf(ir.CondBr), siteOf(ir.Ret)
	cases := map[string]trace.Batch{
		"site past the table":    {Ops: []int32{op(int32(lay.NumSites()), ir.CondBr)}},
		"ret with no target":     {Ops: []int32{op(ret, ir.Ret)}},
		"surplus dynamic target": {Ops: []int32{op(cbr, ir.CondBr)}, Targets: []uint64{0x1000}},
	}
	for _, kind := range []ir.Kind{ir.Op, ir.Br, ir.Call, ir.IJump, ir.Ret, ir.Halt} {
		b := trace.Batch{Ops: []int32{op(cbr, kind)}}
		if kind == ir.IJump || kind == ir.Ret {
			b.Targets = []uint64{0x1000} // exactly the targets the op kind consumes
		}
		cases[fmt.Sprintf("%v op at a cbr site", kind)] = b
	}
	for name, b := range cases {
		if err := lay.Decode(&b, func(trace.Event) {}); err == nil {
			t.Errorf("%s: Decode accepted %+v", name, b)
		}
	}
	// The well-formed batch next to the mismatch cases decodes.
	ok := trace.Batch{Ops: []int32{op(cbr, ir.CondBr), op(ret, ir.Ret)}, Targets: []uint64{0x1000}}
	if err := lay.Decode(&ok, func(trace.Event) {}); err != nil {
		t.Errorf("well-formed batch: %v", err)
	}
}

// TestCompileLayoutErrors covers the compile-time failure modes.
func TestCompileLayoutErrors(t *testing.T) {
	if _, err := trace.CompileLayout(nil); err == nil {
		t.Error("CompileLayout(nil) succeeded")
	}
	// Two procs whose blocks share addresses (AssignAddresses never ran).
	dup := &ir.Program{Procs: []*ir.Proc{
		{Name: "a", Blocks: []*ir.Block{{Instrs: []ir.Instr{{Op: ir.OpRet}}}}},
		{Name: "b", Blocks: []*ir.Block{{Instrs: []ir.Instr{{Op: ir.OpRet}}}}},
	}}
	if _, err := trace.CompileLayout(dup); err == nil {
		t.Error("CompileLayout accepted duplicate site addresses")
	}
}

// loopTestProgram: straight-line header, a self-loop conditional, halt.
func loopTestProgram() *ir.Program {
	p := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpLi, Rd: 1, Imm: 5}}},
		{Instrs: []ir.Instr{
			{Op: ir.OpAddi, Rd: 2, Rs: 2, Imm: 1},
			{Op: ir.OpBnez, Rd: 1, TargetBlock: 1},
		}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "loop", Procs: []*ir.Proc{p}, MemWords: 4}
	prog.AssignAddresses(0x1000)
	return prog
}

// callTestProgram: a loop whose body calls a callee that branches
// internally, exercising call/return plus a mid-block conditional (whose
// fall-through target differs from PC+4).
func callTestProgram() *ir.Program {
	callee := &ir.Proc{Name: "f", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpAddi, Rd: 3, Rs: 3, Imm: 1},
			{Op: ir.OpBnez, Rd: 3, TargetBlock: 2},
			{Op: ir.OpAddi, Rd: 4, Rs: 4, Imm: 1}, // reachable only via resume
		}},
		{Instrs: []ir.Instr{{Op: ir.OpAddi, Rd: 5, Rs: 5, Imm: 2}}},
		{Instrs: []ir.Instr{{Op: ir.OpRet}}},
	}}
	main := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpLi, Rd: 1, Imm: 3}}},
		{Instrs: []ir.Instr{
			{Op: ir.OpCall, TargetProc: 1},
			{Op: ir.OpAddi, Rd: 2, Rs: 2, Imm: 1},
			{Op: ir.OpBnez, Rd: 1, TargetBlock: 1},
		}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "calls", Procs: []*ir.Proc{main, callee}}
	prog.AssignAddresses(0x1000)
	return prog
}

// ijumpTestProgram: an indirect jump dispatching over three targets that
// each loop back through a shared conditional.
func ijumpTestProgram() *ir.Program {
	p := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpIJump, Rd: 1, Targets: []ir.BlockID{1, 2, 3}}}},
		{Instrs: []ir.Instr{{Op: ir.OpAddi, Rd: 2, Rs: 2, Imm: 1}, {Op: ir.OpBr, TargetBlock: 4}}},
		{Instrs: []ir.Instr{{Op: ir.OpAddi, Rd: 3, Rs: 3, Imm: 1}, {Op: ir.OpBr, TargetBlock: 4}}},
		{Instrs: []ir.Instr{{Op: ir.OpAddi, Rd: 4, Rs: 4, Imm: 1}}},
		{Instrs: []ir.Instr{{Op: ir.OpBnez, Rd: 2, TargetBlock: 0}}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "ijump", Procs: []*ir.Proc{p}}
	prog.AssignAddresses(0x1000)
	return prog
}

// recursiveTestProgram: mutual recursion that hits the depth cap, including
// a call in final block position (resume past the block's end).
func recursiveTestProgram() *ir.Program {
	f := &ir.Proc{Name: "f", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpAddi, Rd: 1, Rs: 1, Imm: 1},
			{Op: ir.OpCall, TargetProc: 1},
		}},
		{Instrs: []ir.Instr{{Op: ir.OpRet}}},
	}}
	main := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpCall, TargetProc: 1}, {Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "rec", Procs: []*ir.Proc{main, f}}
	prog.AssignAddresses(0x1000)
	return prog
}
