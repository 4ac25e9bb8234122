package profile

import (
	"bytes"
	"strings"
	"testing"

	"balign/internal/ir"
	"balign/internal/trace"
)

func TestBranchCount(t *testing.T) {
	b := BranchCount{Taken: 3, Fall: 1}
	if b.Total() != 4 {
		t.Errorf("Total = %d, want 4", b.Total())
	}
	if got := b.TakenProb(); got != 0.75 {
		t.Errorf("TakenProb = %v, want 0.75", got)
	}
	var zero BranchCount
	if zero.TakenProb() != 0 {
		t.Errorf("zero TakenProb = %v, want 0", zero.TakenProb())
	}
}

func TestProfileMergeAndScale(t *testing.T) {
	a := New("p")
	a.Instrs = 100
	a.Proc("main").Edges[Edge{0, 1}] = 10
	a.Proc("main").Branches[0] = BranchCount{Taken: 7, Fall: 3}

	b := New("p")
	b.Instrs = 50
	b.Proc("main").Edges[Edge{0, 1}] = 5
	b.Proc("main").Edges[Edge{1, 2}] = 1
	b.Proc("f").Edges[Edge{0, 0}] = 2

	a.Merge(b)
	if a.Instrs != 150 {
		t.Errorf("Instrs = %d, want 150", a.Instrs)
	}
	if w := a.Proc("main").Weight(0, 1); w != 15 {
		t.Errorf("Weight(0,1) = %d, want 15", w)
	}
	if w := a.Proc("f").Weight(0, 0); w != 2 {
		t.Errorf("f Weight(0,0) = %d, want 2", w)
	}

	a.Scale(1, 2)
	if a.Instrs != 75 {
		t.Errorf("scaled Instrs = %d, want 75", a.Instrs)
	}
	if w := a.Proc("main").Weight(1, 2); w != 1 {
		t.Errorf("scaled Weight(1,2) = %d, want 1 (never scale nonzero to zero)", w)
	}
	if c := a.Proc("main").Branches[0]; c.Taken != 3 || c.Fall != 1 {
		t.Errorf("scaled branch = %+v, want {3 1}", c)
	}
}

func TestBlockWeight(t *testing.T) {
	p := NewProcProfile()
	p.Edges[Edge{0, 2}] = 5
	p.Edges[Edge{1, 2}] = 7
	p.Edges[Edge{2, 0}] = 1
	if w := p.BlockWeight(2); w != 12 {
		t.Errorf("BlockWeight(2) = %d, want 12", w)
	}
}

func smallProgram() *ir.Program {
	p := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpLi, Rd: 1, Imm: 3}}},
		{Instrs: []ir.Instr{
			{Op: ir.OpAddi, Rd: 1, Rs: 1, Imm: -1},
			{Op: ir.OpBnez, Rd: 1, TargetBlock: 1},
		}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "small", Procs: []*ir.Proc{p}, MemWords: 4}
	prog.AssignAddresses(0x1000)
	return prog
}

func TestCollectorViaWalker(t *testing.T) {
	prog := smallProgram()
	col := NewCollector(prog)
	w := &trace.Walker{Prog: prog, Model: trace.UniformModel{P: 0.5}, Seed: 9, MaxInstrs: 10_000}
	instrs, _, err := w.Run(nil, col)
	if err != nil {
		t.Fatal(err)
	}
	pf := col.Profile()
	if pf.Instrs != instrs {
		t.Errorf("profile instrs = %d, walker reported %d", pf.Instrs, instrs)
	}
	pp := pf.Procs["main"]
	if pp == nil {
		t.Fatal("no main profile")
	}
	bc := pp.Branches[1]
	if bc.Total() == 0 {
		t.Fatal("branch never recorded")
	}
	if pp.Weight(1, 1) != bc.Taken {
		t.Errorf("taken edge weight %d != taken count %d", pp.Weight(1, 1), bc.Taken)
	}
	if pp.Weight(1, 2) != bc.Fall {
		t.Errorf("fall edge weight %d != fall count %d", pp.Weight(1, 2), bc.Fall)
	}
	if pp.Weight(0, 1) == 0 {
		t.Error("fall-through edge 0->1 not recorded")
	}
}

func TestProfileModelReproducesBehaviour(t *testing.T) {
	prog := smallProgram()
	// Collect a profile with a strongly biased model, then walk again with
	// the profile-derived model and check the bias is reproduced.
	col := NewCollector(prog)
	w := &trace.Walker{Prog: prog, Model: trace.UniformModel{P: 0.9}, Seed: 11, MaxInstrs: 100_000}
	w.Run(nil, col)

	model := col.Profile().Model(prog)
	if p := model.TakenProb(0, 1); p < 0.87 || p > 0.93 {
		t.Errorf("profile model TakenProb = %.3f, want ~0.9", p)
	}

	col2 := NewCollector(prog)
	w2 := &trace.Walker{Prog: prog, Model: model, Seed: 12, MaxInstrs: 100_000}
	w2.Run(nil, col2)
	bc := col2.Profile().Procs["main"].Branches[1]
	rate := bc.TakenProb()
	if rate < 0.85 || rate > 0.95 {
		t.Errorf("re-walked taken rate = %.3f, want ~0.9", rate)
	}
}

func TestProfileModelIJumpWeights(t *testing.T) {
	p := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpIJump, Rd: 1, Targets: []ir.BlockID{1, 2}}}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	prog := &ir.Program{Name: "ij", Procs: []*ir.Proc{p}}
	prog.AssignAddresses(0x1000)
	pf := New("ij")
	pf.Proc("main").Edges[Edge{0, 1}] = 30
	pf.Proc("main").Edges[Edge{0, 2}] = 70
	m := pf.Model(prog)
	w := m.IJumpWeights(0, 0)
	if len(w) != 2 || w[0] != 30 || w[1] != 70 {
		t.Errorf("IJumpWeights = %v, want [30 70]", w)
	}
	// Unknown proc -> nil.
	if m.IJumpWeights(0, 1) != nil {
		t.Error("IJumpWeights for non-ijump block should be nil")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	pf := New("prog")
	pf.Instrs = 12345
	pf.Proc("main").Edges[Edge{0, 1}] = 10
	pf.Proc("main").Edges[Edge{1, 1}] = 99
	pf.Proc("main").Branches[1] = BranchCount{Taken: 99, Fall: 10}
	pf.Proc("zeta").Edges[Edge{2, 0}] = 1

	var buf bytes.Buffer
	if _, err := pf.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Program != "prog" || got.Instrs != 12345 {
		t.Errorf("header = %q/%d", got.Program, got.Instrs)
	}
	if w := got.Proc("main").Weight(1, 1); w != 99 {
		t.Errorf("Weight(1,1) = %d, want 99", w)
	}
	if c := got.Proc("main").Branches[1]; c != (BranchCount{Taken: 99, Fall: 10}) {
		t.Errorf("branch = %+v", c)
	}
	if w := got.Proc("zeta").Weight(2, 0); w != 1 {
		t.Errorf("zeta weight = %d, want 1", w)
	}

	// Output must be stable (sorted).
	var buf2 bytes.Buffer
	if _, err := got.WriteTo(&buf2); err != nil {
		t.Fatalf("WriteTo 2: %v", err)
	}
	second := buf2.String()
	var buf3 bytes.Buffer
	pf2, _ := Read(&buf2)
	if _, err := pf2.WriteTo(&buf3); err != nil {
		t.Fatalf("WriteTo 3: %v", err)
	}
	if second != buf3.String() {
		t.Error("serialization not stable across round trips")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"edge before proc", "edge 0 1 5\n", "edge before proc"},
		{"branch before proc", "branch 0 1 2\n", "branch before proc"},
		{"bad edge", "proc m\nedge a b c\n", "bad edge"},
		{"bad branch", "proc m\nbranch x 1 2\n", "bad branch"},
		{"unknown record", "wibble\n", "unknown record"},
		{"bad instrs", "instrs lots\n", "bad instruction count"},
		{"edge arity", "proc m\nedge 1 2\n", "edge takes"},
		{"negative branch block", "proc m\nbranch -7 1 1\n", "line 2: bad branch"},
		{"negative edge blocks", "proc m\nedge -3 -4 7\n", "line 2: bad edge"},
		{"wrapping edge blocks", "proc m\nedge 4294967297 4294967298 9\n", "line 2: bad edge"},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestTotalEdgeWeight(t *testing.T) {
	pf := New("x")
	pf.Proc("a").Edges[Edge{0, 1}] = 3
	pf.Proc("b").Edges[Edge{0, 1}] = 4
	if w := pf.TotalEdgeWeight(); w != 7 {
		t.Errorf("TotalEdgeWeight = %d, want 7", w)
	}
}
