package core

import (
	"math/rand"
	"strings"
	"testing"

	"balign/internal/asm"
	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/workload"
)

// indirectCallProgram builds a raw program whose call target cannot be
// remapped. It deliberately bypasses Validate (which also rejects these):
// the reorder entry points must fail descriptively on their own rather
// than silently skipping the call site as they once did.
func rawCallProgram(target int) *ir.Program {
	main := &ir.Proc{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpCall, TargetProc: target},
			{Op: ir.OpHalt},
		}},
	}}
	f := &ir.Proc{Name: "f", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpRet}}},
	}}
	prog := &ir.Program{Name: "raw", Procs: []*ir.Proc{main, f}, MemWords: 4}
	prog.AssignAddresses(0x1000)
	return prog
}

func TestReorderProcsRejectsIndirectCall(t *testing.T) {
	prog := rawCallProgram(-1)
	pf := profile.New("raw")
	for name, want := range map[string]func() error{
		"ReorderProcs":       func() error { _, err := ReorderProcs(prog, pf); return err },
		"ReorderProcsExtTSP": func() error { _, err := ReorderProcsExtTSP(prog, pf); return err },
	} {
		err := want()
		if err == nil {
			t.Fatalf("%s accepted an indirect call", name)
		}
		if !strings.Contains(err.Error(), "indirect call") {
			t.Errorf("%s error %q does not describe the indirect call", name, err)
		}
	}
}

func TestReorderProcsRejectsOutOfRangeCall(t *testing.T) {
	prog := rawCallProgram(7)
	pf := profile.New("raw")
	for name, want := range map[string]func() error{
		"ReorderProcs":       func() error { _, err := ReorderProcs(prog, pf); return err },
		"ReorderProcsExtTSP": func() error { _, err := ReorderProcsExtTSP(prog, pf); return err },
	} {
		err := want()
		if err == nil {
			t.Fatalf("%s accepted an out-of-range call target", name)
		}
		if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s error %q does not describe the out-of-range target", name, err)
		}
	}
}

// entryChainSrc invokes a 100 times from a loop; a and b each call their
// only callee from their entry block, so the invocation counts of b and c
// are invisible to intraprocedural edge weights (an entry block has no
// incoming edge). d is a decoy invoked only 10 times.
const entryChainSrc = `
mem 16
proc main
    li r1, 100
ml:
    call a
    addi r1, r1, -1
    bnez r1, ml
    li r2, 10
dl:
    call d
    addi r2, r2, -1
    bnez r2, dl
    halt
endproc
proc a
    call b
    ret
endproc
proc b
    call c
    ret
endproc
proc c
    addi r3, r3, 1
    ret
endproc
proc d
    addi r4, r4, 1
    ret
endproc
`

// TestEntryCountProcOrderRegression is the profile bugfix's regression
// test: with only relative edge weights (no EntryCount), the invocation
// count of a procedure whose callers call from entry blocks bottoms out at
// the bootstrap floor — here c (invoked 100 times, two entry-block hops
// from the loop) ranks below the decoy d (invoked 10 times), so
// hottest-first procedure ordering provably picks the worse layout. The
// absolute entry counts fix the ranking.
func TestEntryCountProcOrderRegression(t *testing.T) {
	prog, err := asm.Assemble(entryChainSrc)
	if err != nil {
		t.Fatal(err)
	}
	pf := profileByVM(t, prog, nil) // collected profiles carry no EntryCount

	hot := ProcHotness(prog, pf)
	c, d := prog.ProcByName("c"), prog.ProcByName("d")
	if hot[c] >= hot[d] {
		t.Fatalf("precondition lost: relative weights should under-count c (c=%d d=%d)", hot[c], hot[d])
	}
	old, err := ReorderProcs(prog, pf)
	if err != nil {
		t.Fatal(err)
	}
	if old.ProcByName("c") < old.ProcByName("d") {
		t.Fatalf("precondition lost: old relative weights should order decoy d before c")
	}

	// The true invocation counts, as an entry-aware collector would record.
	for name, n := range map[string]uint64{"main": 1, "a": 100, "b": 100, "c": 100, "d": 10} {
		pf.Proc(name).EntryCount = n
	}
	hot = ProcHotness(prog, pf)
	if hot[c] != 100 {
		t.Errorf("entry-aware hotness of c = %d, want 100", hot[c])
	}
	fixed, err := ReorderProcs(prog, pf)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.ProcByName("c") > fixed.ProcByName("d") {
		t.Errorf("entry-aware ordering still places 100x-invoked c after 10x decoy d")
	}
}

// randomTSPInstance builds a deterministic random layout instance: block
// sizes and a sparse weighted digraph.
func randomTSPInstance(rng *rand.Rand, n int) (sizes []uint64, edges []tspEdge) {
	sizes = make([]uint64, n)
	for i := range sizes {
		sizes[i] = uint64(1+rng.Intn(16)) * ir.InstrBytes
	}
	for i := 0; i < 3*n; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		edges = append(edges, tspEdge{from: from, to: to, weight: uint64(1 + rng.Intn(1_000_000))})
	}
	return sizes, edges
}

// TestExtTSPRelabelInvariance is the metamorphic block-ID permutation
// property: relabelling the nodes of a layout instance (the abstraction a
// procedure's blocks reach the optimizer through) must not change the
// chosen layout's score. Random weights make exact merge-gain ties — the
// only way the greedy trajectory could legitimately diverge — vanishingly
// unlikely, so score equality is exact up to float association.
func TestExtTSPRelabelInvariance(t *testing.T) {
	params := blockTSPParams()
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 4 + rng.Intn(40)
		sizes, edges := randomTSPInstance(rng, n)
		pin := rng.Intn(n)

		perm := rng.Perm(n) // old -> new
		psizes := make([]uint64, n)
		for i, sz := range sizes {
			psizes[perm[i]] = sz
		}
		pedges := make([]tspEdge, len(edges))
		for i, e := range edges {
			pedges[i] = tspEdge{from: perm[e.from], to: perm[e.to], weight: e.weight}
		}

		base := extTSPScoreOrder(sizes, edges, extTSPOrder(sizes, edges, pin, params), params)
		relab := extTSPScoreOrder(psizes, pedges, extTSPOrder(psizes, pedges, perm[pin], params), params)
		if diff := base - relab; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("trial %d: relabelled instance scored %.9f, original %.9f", trial, relab, base)
		}
	}
}

// TestExtTSPRenameInvariance: procedure names feed nothing but profile
// keying, so renaming every procedure must reproduce the same layouts and
// the same objective score.
func TestExtTSPRenameInvariance(t *testing.T) {
	w, err := workload.ByName("espresso", workload.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := w.CollectProfile()
	if err != nil {
		t.Fatal(err)
	}

	renamedProg := w.Prog.Clone()
	for _, p := range renamedProg.Procs {
		p.Name = "x_" + p.Name
	}
	renamedPf := profile.New(pf.Program)
	renamedPf.Instrs = pf.Instrs
	for name, pp := range pf.Procs {
		renamedPf.Procs["x_"+name] = pp
	}

	base, err := AlignProgram(w.Prog, pf, Options{Algorithm: AlgoExtTSP})
	if err != nil {
		t.Fatal(err)
	}
	ren, err := AlignProgram(renamedProg, renamedPf, Options{Algorithm: AlgoExtTSP})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range base.Prog.Procs {
		rp := ren.Prog.Procs[pi]
		if len(p.Blocks) != len(rp.Blocks) {
			t.Fatalf("proc %s: block count diverged under renaming", p.Name)
		}
		for bi, b := range p.Blocks {
			if b.Orig != rp.Blocks[bi].Orig {
				t.Fatalf("proc %s block %d: layout diverged under renaming (%d vs %d)",
					p.Name, bi, b.Orig, rp.Blocks[bi].Orig)
			}
		}
		var bs, rs float64
		if pp := base.Prof.Procs[p.Name]; pp != nil {
			bs = ExtTSPScore(p, pp)
		}
		if pp := ren.Prof.Procs[rp.Name]; pp != nil {
			rs = ExtTSPScore(rp, pp)
		}
		if diff := bs - rs; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("proc %s: score %.6f != renamed score %.6f", p.Name, bs, rs)
		}
	}
}

// TestExtTSPNeverWorsensOwnObjective: the identity-layout guard means the
// chosen order can never score below the original block order.
func TestExtTSPNeverWorsensOwnObjective(t *testing.T) {
	params := blockTSPParams()
	for _, name := range []string{"ora", "compress", "espresso", "doduc", "gcc"} {
		w, err := workload.ByName(name, workload.Config{Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		pf, _, err := w.CollectProfile()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range w.Prog.Procs {
			pp := pf.Procs[p.Name]
			if pp == nil {
				continue
			}
			sizes, edges := procTSPInput(p, pp)
			layout := extTSPLayout(p, pp)
			order := make([]int, len(layout))
			for i, b := range layout {
				order[i] = int(b)
			}
			identity := make([]int, len(sizes))
			for i := range identity {
				identity[i] = i
			}
			chosen := extTSPScoreOrder(sizes, edges, order, params)
			id := extTSPScoreOrder(sizes, edges, identity, params)
			if chosen < id-1e-9 {
				t.Errorf("%s/%s: chosen layout scores %.6f below identity %.6f", name, p.Name, chosen, id)
			}
		}
	}
}

// FuzzExtTSPSemantics: an ExtTSP rewrite of any generated executable
// program must preserve semantics exactly — identical registers and memory
// under VM replay, and a dynamic instruction count matching the rewriter's
// predicted delta — and the original's decision log, replayed through the
// rewrite, must equal the VM's run of it.
func FuzzExtTSPSemantics(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, err := asm.Assemble(genProgramSrc(seed))
		if err != nil {
			t.Fatalf("seed %d: generator emitted unassemblable program: %v", seed, err)
		}
		pf := profileByVM(t, prog, nil)
		wantRegs, wantMem, origInstrs := runVM(t, prog, nil)

		res, err := AlignProgram(prog, pf, Options{Algorithm: AlgoExtTSP})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Prog.Validate(); err != nil {
			t.Fatalf("seed %d: aligned program invalid: %v", seed, err)
		}
		gotRegs, gotMem, gotInstrs := runVM(t, res.Prog, nil)
		for r := range wantRegs {
			if gotRegs[r] != wantRegs[r] {
				t.Fatalf("seed %d: r%d = %d, want %d", seed, r, gotRegs[r], wantRegs[r])
			}
		}
		for a := range wantMem {
			if gotMem[a] != wantMem[a] {
				t.Fatalf("seed %d: mem[%d] = %d, want %d", seed, a, gotMem[a], wantMem[a])
			}
		}
		if int64(gotInstrs) != int64(origInstrs)+res.Stats.DynInstrDelta {
			t.Fatalf("seed %d: instr delta mismatch: got %d, orig %d, delta %d",
				seed, gotInstrs, origInstrs, res.Stats.DynInstrDelta)
		}
		if err := replayMatchesVM(t, recordLog(t, prog), res.Prog); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
	})
}
