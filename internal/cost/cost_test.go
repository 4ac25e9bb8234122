package cost

import (
	"math"
	"testing"

	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/profile"
)

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestFallthroughModel(t *testing.T) {
	m := FallthroughModel{}
	approx(t, "all fall", m.CondBranch(100, 0, false), 100)
	approx(t, "all taken", m.CondBranch(0, 100, true), 500)
	approx(t, "mixed", m.CondBranch(50, 50, false), 50+250)
	approx(t, "uncond", m.Uncond(10), 20)
}

func TestBTFNTModel(t *testing.T) {
	m := BTFNTModel{}
	approx(t, "taken backward", m.CondBranch(0, 100, true), 200)
	approx(t, "taken forward", m.CondBranch(0, 100, false), 500)
	approx(t, "fall, forward target", m.CondBranch(100, 0, false), 100)
	// A backward branch is predicted taken on every execution, so its
	// fall-throughs mispredict.
	approx(t, "fall, backward target", m.CondBranch(100, 0, true), 500)
	approx(t, "mixed backward", m.CondBranch(10, 90, true), 90*2+10*5)
}

func TestLikelyModel(t *testing.T) {
	m := LikelyModel{}
	// Majority taken: predicted taken (2), minority fall mispredicted (5).
	approx(t, "taken majority", m.CondBranch(10, 90, false), 90*2+10*5)
	// Majority fall: fall costs 1, taken mispredicted.
	approx(t, "fall majority", m.CondBranch(90, 10, false), 90*1+10*5)
	// Tie counts as fall-majority (predict not taken).
	approx(t, "tie", m.CondBranch(50, 50, false), 50*1+50*5)
}

func TestPHTModel(t *testing.T) {
	m := PHTModel{}
	// 90% correct: fall = .9*1+.1*5 = 1.4; taken = .9*2+.1*5 = 2.3.
	approx(t, "fall", m.CondBranch(100, 0, false), 140)
	approx(t, "taken", m.CondBranch(0, 100, false), 230)
	approx(t, "uncond", m.Uncond(100), 200)
}

func TestBTBModel(t *testing.T) {
	m := BTBModel{}
	// takenOK = 1 + .1*1 = 1.1; taken = .9*1.1 + .1*5 = 1.49; fall = 1.4.
	approx(t, "taken", m.CondBranch(0, 100, false), 149)
	approx(t, "fall", m.CondBranch(100, 0, false), 140)
	approx(t, "uncond", m.Uncond(100), 110)
}

func TestTaggedModel(t *testing.T) {
	m := TaggedModel{}
	// 98% correct: fall = .98*1+.02*5 = 1.08; taken = .98*2+.02*5 = 2.06.
	approx(t, "fall", m.CondBranch(100, 0, false), 108)
	approx(t, "taken", m.CondBranch(0, 100, false), 206)
	approx(t, "uncond", m.Uncond(100), 200)
	// The tagged predictors mispredict far less than the PHTs, so almost
	// the whole remaining alignable cost is the taken-side misfetch.
	pht := PHTModel{}
	if gapTagged, gapPHT := m.CondBranch(0, 100, false)-m.CondBranch(100, 0, false),
		pht.CondBranch(0, 100, false)-pht.CondBranch(100, 0, false); gapTagged <= gapPHT {
		t.Errorf("tagged taken-vs-fall gap %v not larger than PHT's %v", gapTagged, gapPHT)
	}
}

func TestModelOrderingMakesAlignmentAttractive(t *testing.T) {
	// For every model, a hot edge as fall-through must cost no more than
	// the same edge taken, and strictly less for the static models.
	for _, m := range []Model{FallthroughModel{}, BTFNTModel{}, LikelyModel{}, PHTModel{}, BTBModel{}, TaggedModel{}} {
		fall := m.CondBranch(1000, 10, false)
		taken := m.CondBranch(10, 1000, false)
		if fall >= taken {
			t.Errorf("%s: fall-through alignment (%v) not cheaper than taken (%v)", m.Name(), fall, taken)
		}
	}
}

func TestForArch(t *testing.T) {
	cases := map[predict.ArchID]string{
		predict.ArchFallthrough: "fallthrough",
		predict.ArchBTFNT:       "btfnt",
		predict.ArchLikely:      "likely",
		predict.ArchPHTDirect:   "pht",
		predict.ArchPHTGshare:   "pht",
		predict.ArchBTB64:       "btb",
		predict.ArchBTB256:      "btb",
		predict.ArchPHTLocal:    "pht",
		predict.ArchTAGE:        "tagged",
		predict.ArchPerceptron:  "tagged",
	}
	for id, want := range cases {
		m, err := ForArch(id)
		if err != nil {
			t.Errorf("ForArch(%s): %v", id, err)
			continue
		}
		if m.Name() != want {
			t.Errorf("ForArch(%s).Name() = %q, want %q", id, m.Name(), want)
		}
	}
	// Every registered architecture must resolve: a descriptor with an
	// unmapped cost group is a registry bug, not input.
	for _, id := range predict.AllArchs() {
		if _, err := ForArch(id); err != nil {
			t.Errorf("ForArch(%s): %v", id, err)
		}
	}
	if _, err := ForArch("bogus"); err == nil {
		t.Error("ForArch(bogus) should error")
	}
}

// loopProc builds the paper's Figure 3 "original" fragment:
//
//	A:  ... condbr -> D (w=1), fall -> B (w=8999)
//	B:  ... fall -> C (w=9000)
//	C:  ... condbr -> A (w=9000... loop), fall -> exit via jump
//
// Simplified to exercise ProcCost's backward/forward distinction.
func loopProc() (*ir.Proc, *profile.ProcProfile) {
	p := &ir.Proc{Name: "loop", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpNop}, {Op: ir.OpBeqz, Rd: 1, TargetBlock: 3}}}, // A
		{Instrs: []ir.Instr{{Op: ir.OpNop}}},                                         // B falls to C
		{Instrs: []ir.Instr{{Op: ir.OpNop}, {Op: ir.OpBnez, Rd: 2, TargetBlock: 0}}}, // C
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},                                        // D
	}}
	prog := &ir.Program{Procs: []*ir.Proc{p}}
	prog.AssignAddresses(0x1000)
	pp := profile.NewProcProfile()
	pp.Edges[profile.Edge{From: 0, To: 3}] = 1
	pp.Edges[profile.Edge{From: 0, To: 1}] = 8999
	pp.Edges[profile.Edge{From: 1, To: 2}] = 9000
	pp.Edges[profile.Edge{From: 2, To: 0}] = 9000
	pp.Edges[profile.Edge{From: 2, To: 3}] = 1
	pp.Branches[0] = profile.BranchCount{Taken: 1, Fall: 8999}
	pp.Branches[2] = profile.BranchCount{Taken: 9000, Fall: 1}
	return p, pp
}

func TestProcCostBTFNT(t *testing.T) {
	p, pp := loopProc()
	got := ProcCost(p, pp, BTFNTModel{})
	// A: fall 8999*1 + taken-forward 1*5 = 9004.
	// C: taken-backward 9000*2 + mispredicted fall 1*5 = 18005 (a backward
	// branch is predicted taken on every execution).
	approx(t, "ProcCost", got, 9004+18005)
}

func TestProcCostFallthroughVsLikely(t *testing.T) {
	p, pp := loopProc()
	ft := ProcCost(p, pp, FallthroughModel{})
	// A: 8999 + 5; C: 9000*5 + 1.
	approx(t, "fallthrough", ft, 8999+5+45000+1)
	lk := ProcCost(p, pp, LikelyModel{})
	// A: majority fall: 8999 + 5; C: majority taken: 9000*2 + 1*5.
	approx(t, "likely", lk, 8999+5+18000+5)
}

func TestProcCostCountsUncond(t *testing.T) {
	p := &ir.Proc{Name: "u", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpBr, TargetBlock: 1}}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	(&ir.Program{Procs: []*ir.Proc{p}}).AssignAddresses(0)
	pp := profile.NewProcProfile()
	pp.Edges[profile.Edge{From: 0, To: 1}] = 7
	approx(t, "uncond cost", ProcCost(p, pp, FallthroughModel{}), 14)
}

func TestProcCostDegenerateBranch(t *testing.T) {
	// Conditional whose taken target is also the fall-through block.
	p := &ir.Proc{Name: "d", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpBeqz, Rd: 1, TargetBlock: 1}}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	(&ir.Program{Procs: []*ir.Proc{p}}).AssignAddresses(0)
	pp := profile.NewProcProfile()
	pp.Edges[profile.Edge{From: 0, To: 1}] = 10
	pp.Branches[0] = profile.BranchCount{Taken: 4, Fall: 6}
	// Fallthrough model: 6*1 + 4*5 = 26 using the outcome split.
	approx(t, "degenerate", ProcCost(p, pp, FallthroughModel{}), 26)
}

// TestProcCostAllocatesNothing keeps ProcCost free of allocations: the
// alignment algorithms price each aligned procedure twice.
func TestProcCostAllocatesNothing(t *testing.T) {
	p, pp := loopProc()
	for _, m := range []Model{FallthroughModel{}, BTFNTModel{}, LikelyModel{}} {
		if n := testing.AllocsPerRun(100, func() { ProcCost(p, pp, m) }); n != 0 {
			t.Errorf("%s: ProcCost allocates %v times per call, want 0", m.Name(), n)
		}
	}
}

func TestProgramCost(t *testing.T) {
	p, pp := loopProc()
	prog := &ir.Program{Name: "x", Procs: []*ir.Proc{p}}
	prog.AssignAddresses(0x1000)
	pf := profile.New("x")
	pf.Procs["loop"] = pp
	if got, want := ProgramCost(prog, pf, BTFNTModel{}), ProcCost(p, pp, BTFNTModel{}); got != want {
		t.Errorf("ProgramCost = %v, want %v", got, want)
	}
	// Profile missing the proc contributes nothing.
	empty := profile.New("x")
	if got := ProgramCost(prog, empty, BTFNTModel{}); got != 0 {
		t.Errorf("ProgramCost with empty profile = %v, want 0", got)
	}
}
