package profile_test

import (
	"slices"
	"testing"

	"balign/internal/core"
	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/workload"
)

// mapTakenProb and mapIJumpWeights answer the model's two questions with
// the profile's own map lookups: the definition the snapshot tables must
// reproduce.
func mapTakenProb(pf *profile.Profile, prog *ir.Program, proc int, block ir.BlockID) float64 {
	pp, ok := pf.Procs[prog.Procs[proc].Name]
	if !ok {
		return 0
	}
	return pp.Branches[block].TakenProb()
}

func mapIJumpWeights(pf *profile.Profile, prog *ir.Program, proc int, block ir.BlockID) []float64 {
	p := prog.Procs[proc]
	pp, ok := pf.Procs[p.Name]
	if !ok {
		return nil
	}
	term, ok := p.Blocks[block].Terminator()
	if !ok || term.Kind() != ir.IJump {
		return nil
	}
	out := make([]float64, len(term.Targets))
	taken := false
	for i, t := range term.Targets {
		out[i] = float64(pp.Edges[profile.Edge{From: block, To: t}])
		taken = taken || out[i] > 0
	}
	if !taken {
		return nil
	}
	return out
}

// checkModel compares pf.Model(prog) with the map lookups at every (proc,
// block) of prog and returns how many indirect jumps carried weights.
func checkModel(t *testing.T, prog *ir.Program, pf *profile.Profile) (weighted int) {
	t.Helper()
	m := pf.Model(prog)
	for pi, p := range prog.Procs {
		for bi := range p.Blocks {
			b := ir.BlockID(bi)
			if got, want := m.TakenProb(pi, b), mapTakenProb(pf, prog, pi, b); got != want {
				t.Errorf("%s block %d: TakenProb = %v, want %v", p.Name, b, got, want)
			}
			got, want := m.IJumpWeights(pi, b), mapIJumpWeights(pf, prog, pi, b)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Errorf("%s block %d: IJumpWeights = %v, want %v", p.Name, b, got, want)
			}
			if want != nil {
				weighted++
			}
		}
	}
	return weighted
}

// TestProfileModelMatchesProfile holds the model's snapshot tables to the
// profile's map lookups: on a hand-built program with a procedure absent
// from the profile, a never-executed branch and an indirect jump whose
// targets were never taken, and on every (proc, block) of an aligned suite
// workload with its transferred profile.
func TestProfileModelMatchesProfile(t *testing.T) {
	main := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpBeqz, Rs: 1, TargetBlock: 2}}},
		{Instrs: []ir.Instr{{Op: ir.OpIJump, Rd: 1, Targets: []ir.BlockID{2, 3}}}},
		{Instrs: []ir.Instr{{Op: ir.OpBnez, Rs: 1, TargetBlock: 0}}},
		{Instrs: []ir.Instr{{Op: ir.OpIJump, Rd: 1, Targets: []ir.BlockID{0, 2}}}},
		{Instrs: []ir.Instr{{Op: ir.OpHalt}}},
	}}
	unprofiled := &ir.Proc{Name: "unprofiled", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpBeqz, Rs: 1, TargetBlock: 1}}},
		{Instrs: []ir.Instr{{Op: ir.OpRet}}},
	}}
	prog := &ir.Program{Name: "model", Procs: []*ir.Proc{main, unprofiled}}
	prog.AssignAddresses(0x1000)
	pf := profile.New("model")
	pp := pf.Proc("main")
	pp.Branches[0] = profile.BranchCount{Taken: 3, Fall: 1} // block 2 never executed
	pp.Edges[profile.Edge{From: 1, To: 2}] = 0              // all-zero weights
	pp.Edges[profile.Edge{From: 3, To: 2}] = 5
	m := pf.Model(prog)
	if got := m.TakenProb(0, 0); got != 0.75 {
		t.Errorf("profiled branch: TakenProb = %v, want 0.75", got)
	}
	if got := m.TakenProb(0, 2); got != 0 {
		t.Errorf("never-executed branch: TakenProb = %v, want 0", got)
	}
	if got := m.TakenProb(1, 0); got != 0 {
		t.Errorf("unprofiled procedure: TakenProb = %v, want 0", got)
	}
	if got := m.IJumpWeights(0, 1); got != nil {
		t.Errorf("all-zero indirect jump: IJumpWeights = %v, want nil", got)
	}
	if got := m.IJumpWeights(0, 3); !slices.Equal(got, []float64{0, 5}) {
		t.Errorf("IJumpWeights = %v, want [0 5]", got)
	}
	// The model is a snapshot: later profile changes do not reach it.
	pp.Branches[0] = profile.BranchCount{Fall: 1}
	if got := m.TakenProb(0, 0); got != 0.75 {
		t.Errorf("after a profile edit: TakenProb = %v, want the snapshot's 0.75", got)
	}
	pp.Branches[0] = profile.BranchCount{Taken: 3, Fall: 1}
	checkModel(t, prog, pf)

	w, err := workload.ByName("gcc", workload.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	orig, _, err := w.CollectProfile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AlignProgram(w.Prog, orig, core.Options{Algorithm: core.AlgoGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if n := checkModel(t, res.Prog, res.Prof); n == 0 {
		t.Error("aligned gcc has no profiled indirect jump; the weights table went untested")
	}
}
