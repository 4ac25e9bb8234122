package experiments

import (
	"strings"
	"testing"

	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/workload"
)

// cfgFixture is the committed real-shaped CFG document at the repository
// root, shared with the cmd-level golden tests.
const cfgFixture = "../../testdata/cfg/go_scanobject.dot"

// TestExtendedFamiliesStreamParity extends the executor parity oracle to
// the adversarial workload families and the CFG import path: the summary
// grid over kmp/mp, phased, a melded kernel and an imported document must
// be byte-identical across kernel flat/ref. The phased family is the
// interesting leg — its hot branch flips direction at every phase
// boundary, so any event reordering between the flat kernel's packed
// batches and the reference simulators' decoded events changes predictor
// state and shows up as a byte diff. make suite-smoke reruns this under
// GOMAXPROCS=4 and -race.
func TestExtendedFamiliesStreamParity(t *testing.T) {
	cfg := fastCfg("phased", "mp", "sc-meld")
	cfg.CFG = []string{cfgFixture}
	archs := predict.DynamicArchs()

	run := func(label, kernel string) string {
		t.Helper()
		c := cfg
		c.Kernel = kernel
		s, err := Summaries(c, archs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := 4 * len(archs) * len(Algos()); len(s) != want {
			t.Fatalf("%s: %d summaries, want %d", label, len(s), want)
		}
		return metrics.EncodeSummaries(s)
	}

	want := run("kernel=flat", "flat")
	if !strings.Contains(want, "phased") || !strings.Contains(want, "go_scanobject") {
		t.Fatalf("summary grid missing extended programs:\n%s", want)
	}
	if got := run("kernel=ref", "ref"); got != want {
		t.Errorf("kernel=ref diverges:\n%s", firstDiff(want, got))
	}
}

// TestImportWorkloadFromFixture covers the experiments-level import seam
// directly: the committed fixture resolves to a runnable workload named
// after the document's program.
func TestImportWorkloadFromFixture(t *testing.T) {
	w, err := ImportWorkload(cfgFixture, workload.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "go_scanobject" {
		t.Errorf("imported workload named %q, want go_scanobject", w.Name)
	}
	if _, err := ImportWorkload("no/such/file.cfg.json", workload.Config{Scale: 0.05}); err == nil {
		t.Error("missing document should error")
	}
}

// TestMeldStudyRuns sanity-checks the alignment-vs-elimination ablation:
// both suite kernels have meldable sites, every row prices all four
// layouts, and the melded variants execute (CPI > 0) on every arch.
func TestMeldStudyRuns(t *testing.T) {
	rows, err := MeldStudy(nil, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(meldStudyArchs()); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Sites < 1 {
			t.Errorf("%s: %d meld sites, want >= 1", r.Program, r.Sites)
		}
		if r.CPIOrig <= 0 || r.CPIAligned <= 0 || r.CPIMeld <= 0 || r.CPIMeldAligned <= 0 {
			t.Errorf("%s/%s: degenerate CPI row %+v", r.Program, r.Arch, r)
		}
	}
	out := FormatMeldStudy(rows)
	for _, want := range []string{"sc", "espresso", "Meld+Align"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted study missing %q:\n%s", want, out)
		}
	}
}
