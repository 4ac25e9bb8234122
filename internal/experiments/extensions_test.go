package experiments

import (
	"strings"
	"testing"
)

func TestPenaltySweep(t *testing.T) {
	rows, err := PenaltySweep("compress", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// The gain must grow (or at least not shrink) with the mispredict
	// penalty — the paper's wide-issue argument.
	for i := 1; i < len(rows); i++ {
		if rows[i].GainPct < rows[i-1].GainPct-0.5 {
			t.Errorf("gain shrank with penalty: %v", rows)
		}
	}
	if rows[len(rows)-1].GainPct <= 0 {
		t.Errorf("no alignment gain at the largest penalty: %v", rows)
	}
	if s := FormatPenaltySweep("compress", rows); !strings.Contains(s, "mispredict") {
		t.Errorf("format malformed: %s", s)
	}
}

func TestCrossTraining(t *testing.T) {
	rows, err := CrossTraining([]string{"compress"}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Alignment trained on input 0 must still beat the original layout on
	// input 1 (run structure dominates data specifics for these kernels).
	if r.CPICrossIn >= r.CPIOrig {
		t.Errorf("cross-input alignment did not help: orig %.3f, cross %.3f", r.CPIOrig, r.CPICrossIn)
	}
	// And it should be close to the same-input result.
	if r.CPICrossIn > r.CPISameInput*1.15 {
		t.Errorf("cross-input CPI %.3f much worse than same-input %.3f", r.CPICrossIn, r.CPISameInput)
	}
	if s := FormatCrossTraining(rows); !strings.Contains(s, "compress") {
		t.Errorf("format malformed: %s", s)
	}
}

func TestUnrollStudy(t *testing.T) {
	rows, err := UnrollStudy([]string{"alvinn"}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.LoopsHandled == 0 {
		t.Fatal("no loops unrolled in alvinn")
	}
	if r.CPIAligned >= r.CPIOrig {
		t.Errorf("alignment alone did not help: %.3f vs %.3f", r.CPIAligned, r.CPIOrig)
	}
	// Unrolling should not be worse than plain alignment on the loop-bound
	// kernel (the paper expects additional benefit).
	if r.CPIUnrolled > r.CPIAligned+0.01 {
		t.Errorf("unroll+align (%.3f) worse than align alone (%.3f)", r.CPIUnrolled, r.CPIAligned)
	}
	if s := FormatUnrollStudy(rows); !strings.Contains(s, "Unroll+Align") {
		t.Errorf("format malformed: %s", s)
	}
}

func TestICacheStudy(t *testing.T) {
	// This study needs a long enough walk to get past cold misses — a
	// 100k-instruction walk of a flat-profile program barely touches the
	// 8 KB cache in any layout and the MPKI ratio is pure noise.
	cfg := Config{Scale: 0.5}
	rows, err := ICacheStudy([]string{"gcc"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.MPKIOrig <= 0 {
		t.Fatal("no I-cache misses measured on gcc")
	}
	// Alignment is roughly I-cache neutral at the paper's cache size (the
	// paper only remarks locality "may also be improved").
	if r.MPKITry > r.MPKIOrig*1.3+1.0 {
		t.Errorf("Try15 MPKI %.2f much worse than orig %.2f", r.MPKITry, r.MPKIOrig)
	}
	if s := FormatICacheStudy(rows); !strings.Contains(s, "MPKI") {
		t.Errorf("format malformed: %s", s)
	}
}

func TestHintStudy(t *testing.T) {
	rows, err := HintStudy([]string{"espresso", "gcc"}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The paper's reason for choosing profiles: they are much more
		// accurate than compile-time estimates.
		if r.ProfileAcc < r.HeuristicAcc {
			t.Errorf("%s: profile hints (%.3f) less accurate than heuristics (%.3f)",
				r.Program, r.ProfileAcc, r.HeuristicAcc)
		}
		if r.ProfileAcc < 0.7 {
			t.Errorf("%s: profile hint accuracy %.3f implausibly low", r.Program, r.ProfileAcc)
		}
		if r.ProfileBEP > r.HeuristicBEP {
			t.Errorf("%s: profile BEP %d worse than heuristic %d", r.Program, r.ProfileBEP, r.HeuristicBEP)
		}
	}
	if s := FormatHintStudy(rows); !strings.Contains(s, "profile acc") {
		t.Errorf("format malformed: %s", s)
	}
}

func TestSeedSweep(t *testing.T) {
	rows, err := SeedSweep([]string{"ora"}, 4, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Seeds != 4 {
		t.Errorf("Seeds = %d, want 4", r.Seeds)
	}
	if r.MeanGainPct <= 0 {
		t.Errorf("mean gain %.2f%%, want positive across seeds", r.MeanGainPct)
	}
	if r.MinGainPct > r.MeanGainPct || r.MaxGainPct < r.MeanGainPct {
		t.Errorf("min/mean/max inconsistent: %.2f/%.2f/%.2f", r.MinGainPct, r.MeanGainPct, r.MaxGainPct)
	}
	if s := FormatSeedSweep(rows); !strings.Contains(s, "mean gain") {
		t.Errorf("format malformed: %s", s)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if s < 2.1 || s > 2.2 { // sample stdev of this classic set is ~2.138
		t.Errorf("std = %v, want ~2.14", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd should be zero")
	}
	if m, s := meanStd([]float64{3}); m != 3 || s != 0 {
		t.Error("single-element meanStd wrong")
	}
}
