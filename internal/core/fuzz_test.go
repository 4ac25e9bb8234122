package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"balign/internal/asm"
	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/trace"
	"balign/internal/vm"
)

// genProgram builds a random but always-terminating assembly program:
// nested bounded loops, data-dependent diamonds, switches and calls. The
// programs execute real computations on the VM, so alignment correctness is
// checked against actual results, not just structural invariants.
type progGen struct {
	rng  *rand.Rand
	sb   strings.Builder
	lbl  int
	regs int // next scratch register
}

func (g *progGen) label() string {
	g.lbl++
	return fmt.Sprintf("L%d", g.lbl)
}

func (g *progGen) reg() int {
	// Registers 1..19 are scratch; 20+ reserved for loop counters.
	r := 1 + g.regs%19
	g.regs++
	return r
}

func (g *progGen) emit(format string, args ...any) {
	fmt.Fprintf(&g.sb, format+"\n", args...)
}

// body emits a statement sequence at the given loop-nesting depth; depth
// limits both loop nesting (counter registers) and recursion.
func (g *progGen) body(depth, stmts int) {
	for s := 0; s < stmts; s++ {
		switch g.rng.Intn(6) {
		case 0: // straight-line ops
			r := g.reg()
			g.emit("    addi r%d, r%d, %d", r, r, g.rng.Intn(7)-3)
			g.emit("    xor r%d, r%d, r%d", g.reg(), r, g.reg())
		case 1: // bounded loop
			if depth >= 3 {
				g.emit("    addi r%d, r%d, 1", g.reg(), g.reg())
				continue
			}
			cnt := 20 + depth
			top := g.label()
			g.emit("    li r%d, %d", cnt, 2+g.rng.Intn(5))
			g.emit("%s:", top)
			g.body(depth+1, 1+g.rng.Intn(2))
			g.emit("    addi r%d, r%d, -1", cnt, cnt)
			g.emit("    bnez r%d, %s", cnt, top)
		case 2: // diamond on a data-dependent value
			r := g.reg()
			els, join := g.label(), g.label()
			g.emit("    andi r%d, r%d, %d", r, g.reg(), 1+g.rng.Intn(7))
			g.emit("    beqz r%d, %s", r, els)
			g.emit("    addi r%d, r%d, 5", g.reg(), g.reg())
			g.emit("    br %s", join)
			g.emit("%s:", els)
			g.emit("    addi r%d, r%d, -5", g.reg(), g.reg())
			g.emit("%s:", join)
		case 3: // switch via ijump
			r := g.reg()
			arms := 2 + g.rng.Intn(3)
			labels := make([]string, arms)
			for i := range labels {
				labels[i] = g.label()
			}
			join := g.label()
			// andi with mask arms-1 always yields a value <= arms-1, so the
			// selector is in range for any arm count.
			g.emit("    andi r%d, r%d, %d", r, g.reg(), arms-1)
			g.emit("    ijump r%d, [%s]", r, strings.Join(labels, ", "))
			for i, l := range labels {
				g.emit("%s:", l)
				g.emit("    addi r%d, r%d, %d", g.reg(), g.reg(), i)
				if i != arms-1 {
					g.emit("    br %s", join)
				}
			}
			g.emit("%s:", join)
		case 4: // memory op
			r := g.reg()
			g.emit("    andi r%d, r%d, 63", r, g.reg())
			g.emit("    st r%d, 0(r%d)", g.reg(), r)
			g.emit("    ld r%d, 0(r%d)", g.reg(), r)
		case 5: // early-ish exit guard (never actually triggers on r31)
			skip := g.label()
			g.emit("    beqz r31, %s", skip)
			g.emit("    halt")
			g.emit("%s:", skip)
		}
	}
}

func genProgramSrc(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	nProcs := 1 + g.rng.Intn(3)
	g.emit("mem 128")
	g.emit("proc main")
	g.body(0, 3+g.rng.Intn(4))
	for p := 1; p <= nProcs; p++ {
		if g.rng.Intn(2) == 0 {
			g.emit("    call f%d", p)
		}
	}
	g.emit("    halt")
	g.emit("endproc")
	for p := 1; p <= nProcs; p++ {
		g.emit("proc f%d", p)
		g.body(1, 2+g.rng.Intn(3))
		g.emit("    ret")
		g.emit("endproc")
	}
	return g.sb.String()
}

// replayMatchesVM checks the replay every VM variant of the grid streams:
// log, recorded from the original's run, replayed through layout, must
// equal the VM's run of layout event for event and in instruction count.
func replayMatchesVM(t *testing.T, log *trace.DecisionLog, layout *ir.Program) error {
	t.Helper()
	var want trace.Recorder
	res, err := vm.New(layout).Run(&want, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lay, err := trace.CompileLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewReplaySource(log, layout, lay, 0, 1, vm.DefaultMaxSteps)
	if err != nil {
		return err
	}
	var got []trace.Event
	var b trace.Batch
	for {
		ok, err := src.Fill(&b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := lay.Decode(&b, func(e trace.Event) { got = append(got, e) }); err != nil {
			return err
		}
	}
	if len(got) != len(want.Events) {
		return fmt.Errorf("replay streamed %d events, the VM %d", len(got), len(want.Events))
	}
	for i := range got {
		if got[i] != want.Events[i] {
			return fmt.Errorf("event %d: replay %+v, VM %+v", i, got[i], want.Events[i])
		}
	}
	if src.Instrs() != res.Instrs {
		return fmt.Errorf("replay retired %d instructions, the VM %d", src.Instrs(), res.Instrs)
	}
	return nil
}

// recordLog runs prog on the VM and returns its decision log.
func recordLog(t *testing.T, prog *ir.Program) *trace.DecisionLog {
	t.Helper()
	log := trace.NewDecisionLog(prog)
	if _, err := vm.New(prog).Run(nil, log); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	return log
}

func fuzzOptions() []Options {
	return []Options{
		{Algorithm: AlgoGreedy},
		{Algorithm: AlgoGreedy, Order: OrderBTFNT},
		{Algorithm: AlgoCost, Model: cost.FallthroughModel{}},
		{Algorithm: AlgoCost, Model: cost.BTFNTModel{}},
		{Algorithm: AlgoCost, Model: cost.PHTModel{}},
		{Algorithm: AlgoTryN, Model: cost.FallthroughModel{}, Window: 6},
		{Algorithm: AlgoTryN, Model: cost.BTFNTModel{}, Window: 6, Order: OrderBTFNT},
		{Algorithm: AlgoTryN, Model: cost.LikelyModel{}, Window: 4},
		{Algorithm: AlgoTryN, Model: cost.BTBModel{}, Window: 10},
		{Algorithm: AlgoExtTSP},
		{Algorithm: AlgoExtTSP, Model: cost.PHTModel{}},
	}
}

// TestFuzzAlignmentSemantics aligns dozens of random executable programs
// with every algorithm/model combination and checks, for each: the aligned
// program validates; it computes identical registers and memory; the
// dynamic instruction delta predicted by the rewriter matches execution;
// the transferred profile matches a fresh profile of the aligned program
// exactly; and the original's decision log, replayed through the aligned
// layout, equals the VM's run of it.
func TestFuzzAlignmentSemantics(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		src := genProgramSrc(int64(seed))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		pf := profileByVM(t, prog, nil)
		wantRegs, wantMem, origInstrs := runVM(t, prog, nil)
		log := recordLog(t, prog)

		for oi, opts := range fuzzOptions() {
			res, err := AlignProgram(prog, pf, opts)
			if err != nil {
				t.Fatalf("seed %d opts %d: align: %v", seed, oi, err)
			}
			if err := res.Prog.Validate(); err != nil {
				t.Fatalf("seed %d opts %d: invalid: %v", seed, oi, err)
			}
			gotRegs, gotMem, gotInstrs := runVM(t, res.Prog, nil)
			for r := range wantRegs {
				if gotRegs[r] != wantRegs[r] {
					t.Fatalf("seed %d opts %d: r%d = %d, want %d", seed, oi, r, gotRegs[r], wantRegs[r])
				}
			}
			for a := range wantMem {
				if gotMem[a] != wantMem[a] {
					t.Fatalf("seed %d opts %d: mem[%d] = %d, want %d", seed, oi, a, gotMem[a], wantMem[a])
				}
			}
			if int64(gotInstrs) != int64(origInstrs)+res.Stats.DynInstrDelta {
				t.Fatalf("seed %d opts %d: instr delta mismatch: got %d, orig %d, delta %d",
					seed, oi, gotInstrs, origInstrs, res.Stats.DynInstrDelta)
			}
			if err := replayMatchesVM(t, log, res.Prog); err != nil {
				t.Fatalf("seed %d opts %d: replay: %v", seed, oi, err)
			}
			fresh := profileByVM(t, res.Prog, nil)
			for name, want := range fresh.Procs {
				got := res.Prof.Procs[name]
				if got == nil {
					t.Fatalf("seed %d opts %d: missing transferred proc %q", seed, oi, name)
				}
				for e, w := range want.Edges {
					if got.Edges[e] != w {
						t.Fatalf("seed %d opts %d: proc %s edge %v: transferred %d, fresh %d",
							seed, oi, name, e, got.Edges[e], w)
					}
				}
				for b, c := range want.Branches {
					if got.Branches[b] != c {
						t.Fatalf("seed %d opts %d: proc %s branch %d: transferred %+v, fresh %+v",
							seed, oi, name, b, got.Branches[b], c)
					}
				}
			}
		}
	}
}

// TestFuzzAlignmentNeverWorsensModelCost checks the model-guided algorithms
// never increase the cost they optimize for (Greedy has no such guarantee,
// but Cost and TryN justify every decision against the model).
func TestFuzzAlignmentNeverWorsensModelCost(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	models := []cost.Model{cost.FallthroughModel{}, cost.BTFNTModel{},
		cost.LikelyModel{}, cost.PHTModel{}, cost.BTBModel{}}
	for seed := 100; seed < 100+seeds; seed++ {
		src := genProgramSrc(int64(seed))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pf := profileByVM(t, prog, nil)
		for _, m := range models {
			before := cost.ProgramCost(prog, pf, m)
			res, err := AlignProgram(prog, pf, Options{Algorithm: AlgoTryN, Model: m, Window: 6})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, m.Name(), err)
			}
			after := cost.ProgramCost(res.Prog, res.Prof, m)
			// Allow a tiny tolerance: the in-flight backward estimate can
			// differ from final placement.
			if after > before*1.05+1 {
				t.Errorf("seed %d %s: TryN worsened model cost %.1f -> %.1f", seed, m.Name(), before, after)
			}
		}
	}
}

// TestFuzzIdempotence: aligning an already-aligned program again must not
// change semantics and should not significantly change cost.
func TestFuzzIdempotence(t *testing.T) {
	for seed := 200; seed < 210; seed++ {
		prog, err := asm.Assemble(genProgramSrc(int64(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pf := profileByVM(t, prog, nil)
		m := cost.FallthroughModel{}
		once, err := AlignProgram(prog, pf, Options{Algorithm: AlgoTryN, Model: m, Window: 6})
		if err != nil {
			t.Fatal(err)
		}
		twice, err := AlignProgram(once.Prog, once.Prof, Options{Algorithm: AlgoTryN, Model: m, Window: 6})
		if err != nil {
			t.Fatal(err)
		}
		wantRegs, _, _ := runVM(t, prog, nil)
		gotRegs, _, _ := runVM(t, twice.Prog, nil)
		for r := range wantRegs {
			if gotRegs[r] != wantRegs[r] {
				t.Fatalf("seed %d: double alignment broke semantics (r%d)", seed, r)
			}
		}
		c1 := cost.ProgramCost(once.Prog, once.Prof, m)
		c2 := cost.ProgramCost(twice.Prog, twice.Prof, m)
		if c2 > c1*1.10+1 {
			t.Errorf("seed %d: realignment worsened cost %.1f -> %.1f", seed, c1, c2)
		}
	}
}

// TestFuzzFormatRoundTripAfterAlignment: aligned programs must survive the
// assembler round trip with identical semantics (the balign tool writes
// assembly back out).
func TestFuzzFormatRoundTrip(t *testing.T) {
	for seed := 300; seed < 312; seed++ {
		prog, err := asm.Assemble(genProgramSrc(int64(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pf := profileByVM(t, prog, nil)
		res, err := AlignProgram(prog, pf, Options{Algorithm: AlgoGreedy})
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := asm.Assemble(res.Prog.Format())
		if err != nil {
			t.Fatalf("seed %d: reassemble aligned program: %v\n%s", seed, err, res.Prog.Format())
		}
		wantRegs, wantMem, _ := runVM(t, res.Prog, nil)
		gotRegs, gotMem, _ := runVM(t, reparsed, nil)
		for r := range wantRegs {
			if gotRegs[r] != wantRegs[r] {
				t.Fatalf("seed %d: round trip changed r%d", seed, r)
			}
		}
		for a := range wantMem {
			if gotMem[a] != wantMem[a] {
				t.Fatalf("seed %d: round trip changed mem[%d]", seed, a)
			}
		}
	}
}
