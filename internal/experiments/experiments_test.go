package experiments

import (
	"strings"
	"testing"

	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/workload"
)

// fastCfg keeps test experiments small: short traces.
func fastCfg(programs ...string) Config {
	return Config{Scale: 0.05, Programs: programs}
}

// archCells maps each algorithm to one program's row for arch.
func archCells(block []metrics.Summary, arch predict.ArchID) map[Algo]metrics.Summary {
	cells := make(map[Algo]metrics.Summary)
	for _, r := range block {
		if r.Arch == string(arch) {
			cells[Algo(r.Algo)] = r
		}
	}
	return cells
}

func TestTable1MentionsAllCosts(t *testing.T) {
	t.Parallel()
	s := Table1()
	for _, want := range []string{"Unconditional", "fall-through", "taken", "Mispredicted", "5", "2", "1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2SubsetShape(t *testing.T) {
	t.Parallel()
	rows, err := Table2(fastCfg("ora", "compress", "db++"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Attr.Instrs == 0 || r.Attr.PctBreaks <= 0 || r.Attr.Q100 == 0 {
			t.Errorf("%s: degenerate attributes %+v", r.Program, r.Attr)
		}
		if r.Attr.Q50 > r.Attr.Q90 || r.Attr.Q90 > r.Attr.Q99 || r.Attr.Q99 > r.Attr.Q100 {
			t.Errorf("%s: quantiles not monotone: %+v", r.Program, r.Attr)
		}
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "ora") || !strings.Contains(text, "%Taken") {
		t.Errorf("FormatTable2 output malformed:\n%s", text)
	}
}

func TestTable3ShapeOnSubset(t *testing.T) {
	t.Parallel()
	cfg := fastCfg("ora", "compress")
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 programs + 2 class averages.
	results := programBlocks(rows)
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for _, r := range results {
		if strings.HasPrefix(r[0].Program, "avg-") {
			continue
		}
		ft := archCells(r, predict.ArchFallthrough)
		// Alignment must help (or at least not hurt) under FALLTHROUGH —
		// the architecture the paper says has the most headroom.
		if ft[AlgoTry].CPI > ft[AlgoOrig].CPI+0.01 {
			t.Errorf("%s: FALLTHROUGH Try15 CPI %.3f worse than Orig %.3f",
				r[0].Program, ft[AlgoTry].CPI, ft[AlgoOrig].CPI)
		}
		// Try15 raises the fall-through rate under FALLTHROUGH.
		if ft[AlgoTry].FallPct < ft[AlgoOrig].FallPct {
			t.Errorf("%s: fall-through %%%.0f did not improve over %.0f",
				r[0].Program, ft[AlgoTry].FallPct, ft[AlgoOrig].FallPct)
		}
		// LIKELY has less headroom than FALLTHROUGH.
		lk := archCells(r, predict.ArchLikely)
		gainFT := ft[AlgoOrig].CPI - ft[AlgoTry].CPI
		gainLK := lk[AlgoOrig].CPI - lk[AlgoTry].CPI
		if gainLK > gainFT+0.02 {
			t.Errorf("%s: LIKELY gained more (%.3f) than FALLTHROUGH (%.3f)", r[0].Program, gainLK, gainFT)
		}
	}
	text := FormatCPITable(rows, predict.StaticArchs(), true)
	if !strings.Contains(text, "fallthrough:Orig") {
		t.Errorf("FormatCPITable missing headers:\n%s", text)
	}
}

func TestTable4ShapeOnSubset(t *testing.T) {
	t.Parallel()
	cfg := fastCfg("ora")
	rows, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := programBlocks(rows)[0]
	for _, arch := range predict.DynamicArchs() {
		cells := archCells(r, arch)
		if cells[AlgoOrig].CPI <= 1.0 {
			t.Errorf("%s/%s: Orig CPI %.3f should exceed 1.0 (penalties exist)", r[0].Program, arch, cells[AlgoOrig].CPI)
		}
		if cells[AlgoTry].CPI > cells[AlgoOrig].CPI+0.05 {
			t.Errorf("%s/%s: Try15 CPI %.3f much worse than Orig %.3f",
				r[0].Program, arch, cells[AlgoTry].CPI, cells[AlgoOrig].CPI)
		}
	}
	// The BTB architectures should already be efficient: their original
	// CPI should beat FALLTHROUGH's original CPI on the same program.
	t3, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ftOrig := cell(t3, predict.ArchFallthrough, AlgoOrig).CPI
	btbOrig := cell(r, predict.ArchBTB256, AlgoOrig).CPI
	if btbOrig >= ftOrig {
		t.Errorf("BTB-256 orig CPI %.3f not better than FALLTHROUGH %.3f", btbOrig, ftOrig)
	}
}

func TestAlignmentNarrowsArchitectureGap(t *testing.T) {
	t.Parallel()
	// Paper: "branch alignment reduces the difference in performance
	// between the various branch architectures" — check FALLTHROUGH vs
	// LIKELY converge after Try15.
	cfg := fastCfg("compress")
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := programBlocks(rows)[0]
	ft, lk := archCells(r, predict.ArchFallthrough), archCells(r, predict.ArchLikely)
	gapBefore := ft[AlgoOrig].CPI - lk[AlgoOrig].CPI
	gapAfter := ft[AlgoTry].CPI - lk[AlgoTry].CPI
	if gapAfter > gapBefore {
		t.Errorf("architecture gap widened: %.3f -> %.3f", gapBefore, gapAfter)
	}
}

func TestFigure1Results(t *testing.T) {
	t.Parallel()
	results, err := Figure1(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want one per static arch", len(results))
	}
	for _, r := range results {
		if r.CostAfter > r.CostBefore {
			t.Errorf("%s: alignment increased cost %.0f -> %.0f", r.Arch, r.CostBefore, r.CostAfter)
		}
		for _, e := range r.After {
			if e.Disposition == "missing" || e.Disposition == "not adjacent" && e.Edge == "31->25" {
				t.Errorf("%s: edge %s ended up %q", r.Arch, e.Edge, e.Disposition)
			}
		}
	}
	// After alignment every static architecture must predict 31->25
	// correctly (the paper lays 25 out as 31's fall-through; an equally
	// valid BT/FNT arrangement keeps it a predicted backward-taken branch,
	// so BT/FNT is allowed the 2-cycle form but never a mispredict).
	for _, r := range results {
		limit := 1.0
		if r.Arch == predict.ArchBTFNT {
			limit = 2.0
		}
		for _, e := range r.After {
			if e.Edge == "31->25" && e.Cycles > limit {
				t.Errorf("%s: 31->25 costs %.0f cycles after alignment (%s), want <= %.0f",
					r.Arch, e.Cycles, e.Disposition, limit)
			}
		}
	}
	if s := FormatFigure1(results); !strings.Contains(s, "25->31") {
		t.Errorf("FormatFigure1 malformed:\n%s", s)
	}
}

func TestFigure2Result(t *testing.T) {
	t.Parallel()
	r, err := Figure2(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 5 cycles/iteration -> 3 cycles/iteration.
	if r.CyclesPerIterBefore < 4.8 || r.CyclesPerIterBefore > 5.3 {
		t.Errorf("before = %.2f cycles/iter, want ~5", r.CyclesPerIterBefore)
	}
	if r.CyclesPerIterAfter < 2.8 || r.CyclesPerIterAfter > 3.3 {
		t.Errorf("after = %.2f cycles/iter, want ~3", r.CyclesPerIterAfter)
	}
}

func TestFigure3Result(t *testing.T) {
	t.Parallel()
	rows, err := Figure3(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CostTryN > r.CostGreedy {
			t.Errorf("%s: TryN %.0f worse than Greedy %.0f", r.Model, r.CostTryN, r.CostGreedy)
		}
		reduction := 1 - r.CostTryN/r.CostOrig
		// Paper reports a ~33% branch-cost reduction on this loop.
		if reduction < 0.25 {
			t.Errorf("%s: reduction %.2f, want >= 0.25 (paper: ~0.33)", r.Model, reduction)
		}
	}
}

func TestFigure4Subset(t *testing.T) {
	t.Parallel()
	rows, err := Figure4(fastCfg("compress", "eqntott"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.RelOrig != 1.0 {
			t.Errorf("%s: RelOrig = %v", r.Program, r.RelOrig)
		}
		if r.RelTry > 1.02 {
			t.Errorf("%s: Try15 relative time %.3f regressed", r.Program, r.RelTry)
		}
		if r.CyclesOrig <= 0 {
			t.Errorf("%s: no cycles measured", r.Program)
		}
	}
	if s := FormatFigure4(rows); !strings.Contains(s, "Pettis&Hansen") {
		t.Errorf("FormatFigure4 malformed:\n%s", s)
	}
}

func TestAblation(t *testing.T) {
	t.Parallel()
	rows, err := Ablation(fastCfg("ora"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The ladder must be monotone within tolerance: TryN <= Greedy.
	if r.CostTryN > r.CostGreedy+0.02 {
		t.Errorf("TryN normalized cost %.3f worse than Greedy %.3f", r.CostTryN, r.CostGreedy)
	}
	if r.CostTryN > 1.0 {
		t.Errorf("TryN did not improve on the original layout: %.3f", r.CostTryN)
	}
	// Window 15 should not be worse than window 5.
	if r.Window15 > r.Window5+0.02 {
		t.Errorf("window 15 cost %.3f worse than window 5 %.3f", r.Window15, r.Window5)
	}
	if s := FormatAblation(rows); !strings.Contains(s, "ora") {
		t.Errorf("FormatAblation malformed:\n%s", s)
	}
}

func TestEvaluateClassAverage(t *testing.T) {
	t.Parallel()
	cfg := fastCfg("ora")
	w, err := workload.ByName("ora", workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := evaluatePrograms([]*workload.Workload{w}, predict.StaticArchs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := ClassAverage("avg-"+string(workload.SPECfp), [][]metrics.Summary{r})
	got := cell(avg, predict.ArchFallthrough, AlgoOrig).CPI
	want := cell(r, predict.ArchFallthrough, AlgoOrig).CPI
	if got != want {
		t.Errorf("single-program average %.4f != program value %.4f", got, want)
	}
}

func TestTryNNeverWorsensBTFNT(t *testing.T) {
	t.Parallel()
	// Regression guard for two bugs found during reproduction: BT/FNT must
	// predict from the static displacement (not the event outcome), and
	// the BT/FNT cost model must charge fall-through executions of a
	// backward branch as mispredicts. With both fixed, TryN aligned for
	// BT/FNT never loses to the original layout on these branchy kernels.
	cfg := Config{Scale: 0.3, Programs: []string{"eqntott", "li", "compress"}}
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range programBlocks(rows) {
		if strings.HasPrefix(r[0].Program, "avg-") {
			continue
		}
		cells := archCells(r, predict.ArchBTFNT)
		if cells[AlgoTry].CPI > cells[AlgoOrig].CPI+0.01 {
			t.Errorf("%s: BT/FNT Try15 CPI %.3f worse than Orig %.3f",
				r[0].Program, cells[AlgoTry].CPI, cells[AlgoOrig].CPI)
		}
	}
}
