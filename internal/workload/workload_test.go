package workload

import (
	"math"
	"testing"

	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/metrics"
	"balign/internal/profile"
	"balign/internal/trace"
)

func TestNamesMatchesPaperSuite(t *testing.T) {
	names := Names()
	if len(names) != 24 {
		t.Fatalf("suite has %d programs, want the paper's 24", len(names))
	}
	want := map[string]bool{"alvinn": true, "gcc": true, "tex": true, "db++": true, "tomcatv": true}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for n := range want {
		if !got[n] {
			t.Errorf("missing program %q", n)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("not-a-benchmark", Config{}); err == nil {
		t.Error("unknown name should error")
	}
}

func TestKernelsRunAndProfile(t *testing.T) {
	for _, name := range []string{"alvinn", "tomcatv", "compress", "eqntott", "espresso", "li", "ear", "sc"} {
		w, err := ByName(name, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !w.IsKernel() {
			t.Errorf("%s: expected kernel workload", name)
		}
		pf, instrs, err := w.CollectProfile()
		if err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		if instrs < 100_000 {
			t.Errorf("%s: only %d instructions; kernels should run long enough to matter", name, instrs)
		}
		if len(pf.Procs) == 0 || pf.TotalEdgeWeight() == 0 {
			t.Errorf("%s: empty profile", name)
		}
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func() uint64 {
		w, err := ByName("compress", Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, instrs, err := w.CollectProfile()
		if err != nil {
			t.Fatal(err)
		}
		return instrs
	}
	if a, b := run(), run(); a != b {
		t.Errorf("kernel instruction counts differ across runs: %d vs %d", a, b)
	}
}

func TestSyntheticMatchesSpecTargets(t *testing.T) {
	// Check a few representative synthetic programs against their Table 2
	// targets with generous tolerances: the generator is calibrated, not
	// exact.
	for _, name := range []string{"doduc", "gcc", "swm256", "cfront"} {
		var spec Spec
		for _, s := range specs {
			if s.Name == name {
				spec = s
			}
		}
		w, err := ByName(name, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		col := metrics.NewCollector()
		instrs, err := w.Run(w.Prog, nil, col, nil)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		col.Instrs = instrs
		a := col.Attributes(w.Prog)

		if rel := math.Abs(a.PctBreaks-spec.PctBreaks) / spec.PctBreaks; rel > 0.5 {
			t.Errorf("%s: PctBreaks = %.2f, target %.2f (rel err %.2f)", name, a.PctBreaks, spec.PctBreaks, rel)
		}
		if diff := math.Abs(a.PctTaken - spec.PctTaken); diff > 15 {
			t.Errorf("%s: PctTaken = %.1f, target %.1f", name, a.PctTaken, spec.PctTaken)
		}
		wantCBrPct := 100 * spec.MixCBr
		if diff := math.Abs(a.PctCBr - wantCBrPct); diff > 20 {
			t.Errorf("%s: PctCBr = %.1f, target %.1f", name, a.PctCBr, wantCBrPct)
		}
		if spec.MixIJ > 0.01 && a.PctIJ == 0 {
			t.Errorf("%s: no indirect jumps despite target %.1f%%", name, 100*spec.MixIJ)
		}
		if a.StaticSites < spec.CondSites/3 || a.StaticSites > spec.CondSites*3 {
			t.Errorf("%s: StaticSites = %d, target %d", name, a.StaticSites, spec.CondSites)
		}
	}
}

func TestSyntheticDeterministicAndSeedSensitive(t *testing.T) {
	build := func(seed int64) *Workload {
		w, err := ByName("ora", Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := build(0), build(0)
	if a.Prog.Format() != b.Prog.Format() {
		t.Error("same seed produced different programs")
	}
	c := build(99)
	if a.Prog.Format() == c.Prog.Format() {
		t.Error("different seeds produced identical programs")
	}
}

func TestSyntheticAlignedRunNeedsProfile(t *testing.T) {
	w, err := ByName("ora", Config{})
	if err != nil {
		t.Fatal(err)
	}
	other := w.Prog.Clone()
	other.AssignAddresses(0x1000)
	if _, err := w.Run(other, nil, nil, nil); err == nil {
		t.Error("tracing a non-original program without profile should error")
	}
	// A variant whose addresses were never assigned cannot be laid out.
	unplaced := w.Prog.Clone()
	for _, p := range unplaced.Procs {
		for _, b := range p.Blocks {
			b.Addr = 0
		}
	}
	if _, err := w.Run(unplaced, &profile.Profile{}, nil, nil); err == nil {
		t.Error("tracing a program with unassigned addresses should error")
	}
}

// TestInlineWalkCeiling checks where an aligned variant's walk stops once
// the original has completed runs: after as many runs, within 3·budget for
// a built-in workload and within min(3·budget, limit) for an inline one.
func TestInlineWalkCeiling(t *testing.T) {
	ora, err := ByName("ora", Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ora.noteOrigRuns(2)
	walker, err := ora.walker(ora.Prog.Clone(), &profile.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if walker.MaxRuns != 2 || walker.MaxInstrs != 3*ora.budget {
		t.Errorf("built-in variant walk: %d runs within %d instructions, want 2 within 3·budget = %d",
			walker.MaxRuns, walker.MaxInstrs, 3*ora.budget)
	}

	// streamVariant streams an unaligned copy of Figure 1's fragment, as an
	// aligned variant of an inline walk workload, and returns the
	// instructions it retired.
	fig := Figure1()
	variant := fig.Prog.Clone()
	lay, err := trace.CompileLayout(variant)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 16
	streamVariant := func(limit uint64) uint64 {
		w, err := Inline(fig.Name, fig.Prog, fig.Prof, true, 7, budget, limit)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.CollectProfile(); err != nil {
			t.Fatal(err)
		}
		src, err := w.Stream(variant, fig.Prof, lay, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		var b trace.Batch
		for {
			ok, err := src.Fill(&b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return src.Instrs()
			}
		}
	}
	runs := streamVariant(3 * budget) // the original's completed runs
	limit := runs / 2
	if got := streamVariant(limit); got > limit {
		t.Errorf("inline variant walk retired %d instructions, over its limit %d (uncapped: %d)", got, limit, runs)
	}
}

func TestSyntheticAlignmentRoundTrip(t *testing.T) {
	// End-to-end: profile a synthetic program, align it, walk the aligned
	// program with the transferred profile, and confirm the event volume is
	// comparable and the model cost improved.
	w, err := ByName("ear", Config{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := w.CollectProfile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AlignProgram(w.Prog, pf, core.Options{
		Algorithm: core.AlgoTryN, Model: cost.FallthroughModel{}, Window: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := cost.ProgramCost(w.Prog, pf, cost.FallthroughModel{})
	after := cost.ProgramCost(res.Prog, res.Prof, cost.FallthroughModel{})
	if after >= before {
		t.Errorf("alignment did not reduce model cost: %.0f -> %.0f", before, after)
	}

	var cnt trace.Counter
	instrs, err := w.Run(res.Prog, res.Prof, &cnt, nil)
	if err != nil {
		t.Fatalf("aligned walk: %v", err)
	}
	if instrs == 0 || cnt.Total == 0 {
		t.Fatal("aligned walk produced nothing")
	}
	// Taken rate should drop substantially under FALLTHROUGH-model
	// alignment.
	var origCnt trace.Counter
	if _, err := w.Run(w.Prog, nil, &origCnt, nil); err != nil {
		t.Fatal(err)
	}
	origTaken := float64(origCnt.CondTaken) / float64(origCnt.CondTaken+origCnt.CondFall)
	newTaken := float64(cnt.CondTaken) / float64(cnt.CondTaken+cnt.CondFall)
	if newTaken >= origTaken {
		t.Errorf("aligned taken rate %.3f not below original %.3f", newTaken, origTaken)
	}
}

func TestFragments(t *testing.T) {
	for _, f := range []Fragment{Figure1(), Figure2(), Figure3()} {
		if err := f.Prog.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", f.Name, err)
		}
		if f.Prof.TotalEdgeWeight() == 0 {
			t.Errorf("%s: empty profile", f.Name)
		}
		// Every profiled edge must exist in the CFG.
		for name, pp := range f.Prof.Procs {
			idx := f.Prog.ProcByName(name)
			if idx < 0 {
				t.Fatalf("%s: profile proc %q not in program", f.Name, name)
			}
			p := f.Prog.Procs[idx]
			valid := map[profile.Edge]bool{}
			for _, e := range p.Edges() {
				valid[profile.Edge{From: e.From, To: e.To}] = true
			}
			for e := range pp.Edges {
				if !valid[e] {
					t.Errorf("%s: profiled edge %v not a CFG edge", f.Name, e)
				}
			}
		}
	}
}

func TestFigure2LoopTrickNumbers(t *testing.T) {
	// The paper: the original single-block loop costs 5 cycles per
	// iteration under FALLTHROUGH (1 + 4 mispredict); inverted with a jump
	// it costs 3 (1 + 2). Check our cost model and alignment agree.
	f := Figure2()
	m := cost.FallthroughModel{}
	before := cost.ProgramCost(f.Prog, f.Prof, m)
	res, err := core.AlignProgram(f.Prog, f.Prof, core.Options{Algorithm: core.AlgoCost, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	after := cost.ProgramCost(res.Prog, res.Prof, m)
	iters := 95 * 30.0
	// Before: loop branch taken (5) per iteration dominates.
	if before < 5*iters {
		t.Errorf("before = %.0f, want >= %.0f", before, 5*iters)
	}
	// After: ~3 per iteration plus small terms.
	if after > 3.2*iters {
		t.Errorf("after = %.0f, want about 3 cycles/iteration (%.0f)", after, 3*iters)
	}
	if res.Stats.JumpsInserted == 0 {
		t.Error("loop trick should insert a jump")
	}
}

func TestFigure3Improvement(t *testing.T) {
	f := Figure3()
	for _, m := range []cost.Model{cost.BTFNTModel{}, cost.LikelyModel{}} {
		before := cost.ProgramCost(f.Prog, f.Prof, m)
		res, err := core.AlignProgram(f.Prog, f.Prof, core.Options{
			Algorithm: core.AlgoTryN, Model: m, Window: 8,
			Order: core.OrderBTFNT,
		})
		if err != nil {
			t.Fatal(err)
		}
		after := cost.ProgramCost(res.Prog, res.Prof, m)
		// Paper: 36,002 -> 27,004 cycles, a ~25% reduction in branch cost.
		if after >= before*0.8 {
			t.Errorf("%s: cost %.0f -> %.0f; want >= 20%% reduction", m.Name(), before, after)
		}
	}
}

func TestCSuite(t *testing.T) {
	ws, err := CSuite(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 {
		t.Errorf("C suite has %d programs, want 8", len(ws))
	}
}
