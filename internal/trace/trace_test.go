package trace

import (
	"fmt"
	"slices"
	"testing"

	"balign/internal/ir"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Event(Event{Kind: ir.CondBr, Taken: true})
	c.Event(Event{Kind: ir.CondBr, Taken: false})
	c.Event(Event{Kind: ir.Br, Taken: true})
	c.Event(Event{Kind: ir.Call, Taken: true})
	c.Event(Event{Kind: ir.Ret, Taken: true})
	c.Event(Event{Kind: ir.IJump, Taken: true})
	if c.Total != 6 {
		t.Errorf("Total = %d, want 6", c.Total)
	}
	if c.ByKind[ir.CondBr] != 2 || c.ByKind[ir.Br] != 1 || c.ByKind[ir.Call] != 1 ||
		c.ByKind[ir.Ret] != 1 || c.ByKind[ir.IJump] != 1 {
		t.Errorf("ByKind = %v", c.ByKind)
	}
	if c.CondTaken != 1 || c.CondFall != 1 {
		t.Errorf("CondTaken/Fall = %d/%d, want 1/1", c.CondTaken, c.CondFall)
	}
}

func TestRecorder(t *testing.T) {
	var a Recorder
	a.Event(Event{PC: 4})
	a.Event(Event{PC: 8})
	if len(a.Events) != 2 {
		t.Fatalf("recorder got %d events, want 2", len(a.Events))
	}
	if a.Events[1].PC != 8 {
		t.Errorf("recorded PC = %d, want 8", a.Events[1].PC)
	}
}

// loopProgram builds: main: b0 (li, li) ; b1 loop body ends bnez->b1 ; b2 halt.
func loopProgram() *ir.Program {
	p := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Orig: 0, Instrs: []ir.Instr{{Op: ir.OpLi, Rd: 1, Imm: 5}}},
		{Orig: 1, Instrs: []ir.Instr{
			{Op: ir.OpAddi, Rd: 2, Rs: 2, Imm: 1},
			{Op: ir.OpBnez, Rd: 1, TargetBlock: 1},
		}},
		{Orig: 2, Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "loop", Procs: []*ir.Proc{p}, MemWords: 4}
	prog.AssignAddresses(0x1000)
	return prog
}

func TestWalkerDeterministic(t *testing.T) {
	prog := loopProgram()
	run := func() []Event {
		var rec Recorder
		w := &Walker{Prog: prog, Model: UniformModel{P: 0.9}, Seed: 42, MaxInstrs: 500}
		w.Run(&rec, nil)
		return rec.Events
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("walker produced no events")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWalkerRespectsBudgetAndRestarts(t *testing.T) {
	prog := loopProgram()
	w := &Walker{Prog: prog, Model: UniformModel{P: 0.0}, Seed: 1, MaxInstrs: 100}
	var c Counter
	instrs, runs, err := w.Run(&c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if instrs < 100 {
		t.Errorf("instrs = %d, want >= 100", instrs)
	}
	// P=0 means each run executes li, addi, bnez (not taken), halt = 4
	// instructions and restarts; expect many runs.
	if runs < 10 {
		t.Errorf("runs = %d, want many restarts", runs)
	}
	if c.CondTaken != 0 {
		t.Errorf("CondTaken = %d, want 0 with P=0", c.CondTaken)
	}
}

func TestWalkerTakenProbability(t *testing.T) {
	prog := loopProgram()
	w := &Walker{Prog: prog, Model: UniformModel{P: 0.8}, Seed: 7, MaxInstrs: 200_000}
	var c Counter
	w.Run(&c, nil)
	total := c.CondTaken + c.CondFall
	if total == 0 {
		t.Fatal("no conditional events")
	}
	rate := float64(c.CondTaken) / float64(total)
	if rate < 0.77 || rate > 0.83 {
		t.Errorf("taken rate = %.3f, want ~0.80", rate)
	}
}

func TestWalkerCallsAndReturns(t *testing.T) {
	callee := &ir.Proc{Name: "f", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpAddi, Rd: 3, Rs: 3, Imm: 1}, {Op: ir.OpRet}}},
	}}
	main := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpCall, TargetProc: 1}, {Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "c", Procs: []*ir.Proc{main, callee}}
	prog.AssignAddresses(0x1000)
	var rec Recorder
	w := &Walker{Prog: prog, Model: UniformModel{}, Seed: 3, MaxInstrs: 4}
	w.Run(&rec, nil)
	if len(rec.Events) != 2 {
		t.Fatalf("events = %d, want 2 (call, ret): %+v", len(rec.Events), rec.Events)
	}
	call, ret := rec.Events[0], rec.Events[1]
	if call.Kind != ir.Call || ret.Kind != ir.Ret {
		t.Fatalf("kinds = %v, %v; want call, ret", call.Kind, ret.Kind)
	}
	if ret.Target != call.Fall {
		t.Errorf("ret target %#x != call fall %#x", ret.Target, call.Fall)
	}
	if call.Target != callee.Blocks[0].Addr {
		t.Errorf("call target %#x != callee entry %#x", call.Target, callee.Blocks[0].Addr)
	}
}

func TestWalkerIJumpWeights(t *testing.T) {
	p := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpIJump, Rd: 1, Targets: []ir.BlockID{1, 2}}}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "ij", Procs: []*ir.Proc{p}}
	prog.AssignAddresses(0x1000)

	// Weight target index 1 (block 2) at 100%.
	model := weightedModel{weights: []float64{0, 1}}
	var rec Recorder
	w := &Walker{Prog: prog, Model: model, Seed: 5, MaxInstrs: 50}
	w.Run(&rec, nil)
	if len(rec.Events) == 0 {
		t.Fatal("no events")
	}
	for _, e := range rec.Events {
		if e.Kind != ir.IJump {
			continue
		}
		if e.Target != p.Blocks[2].Addr {
			t.Errorf("ijump went to %#x, want always block 2 (%#x)", e.Target, p.Blocks[2].Addr)
		}
	}
}

type weightedModel struct{ weights []float64 }

func (m weightedModel) TakenProb(int, ir.BlockID) float64      { return 0.5 }
func (m weightedModel) IJumpWeights(int, ir.BlockID) []float64 { return m.weights }

func TestWalkerDepthCap(t *testing.T) {
	// Mutually recursive: main calls f, f calls f. Depth cap must keep the
	// walk alive and terminate at the budget.
	f := &ir.Proc{Name: "f", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpCall, TargetProc: 1}, {Op: ir.OpRet}}},
	}}
	main := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpCall, TargetProc: 1}, {Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "rec", Procs: []*ir.Proc{main, f}}
	prog.AssignAddresses(0x1000)
	w := &Walker{Prog: prog, Model: UniformModel{}, Seed: 1, MaxInstrs: 1000, MaxDepth: 8}
	instrs, _, err := w.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if instrs < 1000 {
		t.Errorf("instrs = %d, want budget reached despite recursion", instrs)
	}
}

func TestWalkerMaxRuns(t *testing.T) {
	prog := loopProgram()
	w := &Walker{Prog: prog, Model: UniformModel{P: 0.0}, Seed: 1,
		MaxInstrs: 1 << 30, MaxRuns: 7}
	instrs, runs, err := w.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 7 {
		t.Errorf("runs = %d, want exactly MaxRuns", runs)
	}
	// P=0: each run is li + addi + bnez(fall) + halt = 4 instructions.
	if instrs != 7*4 {
		t.Errorf("instrs = %d, want 28", instrs)
	}
}

func TestWalkerTakenTargetStatic(t *testing.T) {
	// Not-taken conditional events must still carry the static taken
	// target (what a BT/FNT predictor inspects).
	prog := loopProgram()
	var rec Recorder
	w := &Walker{Prog: prog, Model: UniformModel{P: 0.0}, Seed: 1, MaxInstrs: 10}
	w.Run(&rec, nil)
	loopAddr := prog.Procs[0].Blocks[1].Addr
	found := false
	for _, e := range rec.Events {
		if e.Kind == ir.CondBr && !e.Taken {
			found = true
			if e.TakenTarget != loopAddr {
				t.Errorf("not-taken event TakenTarget = %#x, want static target %#x", e.TakenTarget, loopAddr)
			}
			if e.Target == e.TakenTarget {
				t.Errorf("not-taken event's actual target should differ from the taken target here")
			}
		}
	}
	if !found {
		t.Fatal("no not-taken conditional events recorded")
	}
}

// edgeLog is an EdgeSink recording every observation in order.
type edgeLog []string

func (l *edgeLog) Edge(proc int, from, to ir.BlockID) {
	*l = append(*l, fmt.Sprintf("edge %d:%d->%d", proc, from, to))
}

func (l *edgeLog) Branch(proc int, block ir.BlockID, taken bool) {
	*l = append(*l, fmt.Sprintf("branch %d:%d %v", proc, block, taken))
}

func (l *edgeLog) Instrs(n uint64) { *l = append(*l, fmt.Sprintf("instrs %d", n)) }

// TestWalkerEdgeObservations pins the walk's edge hook against hand-traced
// walks: a conditional reports its outcome and then its edge, br, ijump
// and a block falling into the next report an edge, calls, returns and
// halts report nothing, and the instruction total is reported once, at the
// end.
func TestWalkerEdgeObservations(t *testing.T) {
	prog := func(procs ...*ir.Proc) *ir.Program {
		p := &ir.Program{Name: "edges", Procs: procs}
		p.AssignAddresses(0x1000)
		return p
	}
	block := func(ops ...ir.Instr) *ir.Block { return &ir.Block{Instrs: ops} }
	addi := ir.Instr{Op: ir.OpAddi, Rd: 1, Rs: 1, Imm: 1}
	halt := ir.Instr{Op: ir.OpHalt}
	ret := ir.Instr{Op: ir.OpRet}
	call := func(proc int) ir.Instr { return ir.Instr{Op: ir.OpCall, TargetProc: proc} }
	bnez := func(to ir.BlockID) ir.Instr { return ir.Instr{Op: ir.OpBnez, Rd: 1, TargetBlock: to} }

	cases := []struct {
		name   string
		w      Walker
		want   []string
		instrs uint64
		runs   int
	}{{
		// f's last block ends in a conditional with no fall-through: it is
		// taken although P=0 draws not-taken, and its edge goes back to
		// f's entry. f's entry falls into that block.
		name: "forced taken",
		w: Walker{Prog: prog(
			&ir.Proc{Name: "main", Blocks: []*ir.Block{block(call(1), halt)}},
			&ir.Proc{Name: "f", Blocks: []*ir.Block{block(addi), block(bnez(0))}},
		), Model: UniformModel{P: 0}, MaxInstrs: 7},
		want: []string{
			"edge 1:0->1", "branch 1:1 true", "edge 1:1->0",
			"edge 1:0->1", "branch 1:1 true", "edge 1:1->0",
			"edge 1:0->1", "branch 1:1 true", "edge 1:1->0",
			"instrs 7",
		},
		instrs: 7,
	}, {
		// A conditional that falls through, into a block with no
		// terminator, which falls into the halt.
		name: "fall through",
		w: Walker{Prog: prog(&ir.Proc{Name: "main", Blocks: []*ir.Block{
			block(bnez(3)), block(addi), block(halt), block(halt),
		}}), Model: UniformModel{P: 0}, MaxInstrs: 1 << 20, MaxRuns: 2},
		want: []string{
			"branch 0:0 false", "edge 0:0->1", "edge 0:1->2",
			"branch 0:0 false", "edge 0:0->1", "edge 0:1->2",
			"instrs 6",
		},
		instrs: 6, runs: 2,
	}, {
		// One-hot weights send every indirect jump to its third target,
		// whose br returns to the jump.
		name: "ijump",
		w: Walker{Prog: prog(&ir.Proc{Name: "main", Blocks: []*ir.Block{
			block(ir.Instr{Op: ir.OpIJump, Rd: 1, Targets: []ir.BlockID{1, 2, 3}}),
			block(halt), block(halt),
			block(addi, ir.Instr{Op: ir.OpBr, TargetBlock: 0}),
		}}), Model: weightedModel{weights: []float64{0, 0, 1}}, MaxInstrs: 7},
		want: []string{
			"edge 0:0->3", "edge 0:3->0",
			"edge 0:0->3", "edge 0:3->0",
			"edge 0:0->3",
			"instrs 7",
		},
		instrs: 7,
	}, {
		// At depth cap 1, f's call to g is one straight-line instruction:
		// g's edge 0->1 is never taken, and the call itself adds no edge.
		name: "depth cap",
		w: Walker{Prog: prog(
			&ir.Proc{Name: "main", Blocks: []*ir.Block{block(call(1), halt)}},
			&ir.Proc{Name: "f", Blocks: []*ir.Block{block(call(2)), block(ret)}},
			&ir.Proc{Name: "g", Blocks: []*ir.Block{block(addi), block(ret)}},
		), Model: UniformModel{}, MaxInstrs: 1 << 20, MaxRuns: 1, MaxDepth: 1},
		want:   []string{"edge 1:0->1", "instrs 4"},
		instrs: 4, runs: 1,
	}, {
		// The budget runs out on the third of b1's five instructions: the
		// walk reports b0's fall-through and nothing of b1.
		name: "budget mid-block",
		w: Walker{Prog: prog(&ir.Proc{Name: "main", Blocks: []*ir.Block{
			block(addi, addi), block(addi, addi, addi, addi, bnez(0)), block(halt),
		}}), Model: UniformModel{P: 1}, MaxInstrs: 5},
		want:   []string{"edge 0:0->1", "instrs 5"},
		instrs: 5,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got edgeLog
			instrs, runs, err := c.w.Run(nil, &got)
			if err != nil {
				t.Fatal(err)
			}
			if instrs != c.instrs || runs != c.runs {
				t.Errorf("walked %d instrs, %d runs; want %d, %d", instrs, runs, c.instrs, c.runs)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("observations:\n got %q\nwant %q", got, c.want)
			}
		})
	}
}
