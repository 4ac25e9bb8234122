package experiments

import (
	"fmt"
	"testing"

	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/workload"
)

// TestStreamMatchesRecordedSynthetic checks work-equivalence for the
// walker-backed workloads (randomized synthetic programs plus an imported
// CFG document): for every variant newEvalUnit builds, the walk w.Stream
// produces of an aligned layout stops after exactly the profiling walk's
// complete-run count. Only the imported CFG halts: the synthetic programs'
// dispatch loops never do, so their profiling walks complete no runs, and
// then every aligned walk must complete none either and stop at the budget,
// retiring exactly the profiling walk's instructions. A walker-backed
// stream is the trace.WalkSource that w.Run decodes, so its events are
// Run's by construction.
func TestStreamMatchesRecordedSynthetic(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 42, 1337} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, name := range []string{"ora", "doduc", "gcc", "db++"} {
				w, err := workload.ByName(name, workload.Config{Scale: fastCfg().Scale, Seed: seed})
				if err != nil {
					t.Fatalf("ByName(%s): %v", name, err)
				}
				assertWorkEquivalent(t, w)
			}
		})
	}
	t.Run("go_scanobject", func(t *testing.T) {
		w, err := ImportWorkload(cfgFixture, workload.Config{Scale: fastCfg().Scale})
		if err != nil {
			t.Fatal(err)
		}
		assertWorkEquivalent(t, w)
	})
}

// assertWorkEquivalent prepares w's evaluation unit and requires every
// aligned variant's stream to complete as many runs as the profiling walk,
// and, when that is none, to retire as many instructions.
func assertWorkEquivalent(t *testing.T, w *workload.Workload) {
	t.Helper()
	u, err := newEvalUnit(w, predict.AllArchs(), fastCfg())
	if err != nil {
		t.Fatalf("%s: newEvalUnit: %v", w.Name, err)
	}
	// The profiling walk (the original program under its native model)
	// fixes the complete-run count every aligned walk is truncated to; a
	// walk that completes no run stops at the budget instead.
	trainRuns, trainInstrs := streamedRuns(t, w, "profile", w.Prog, nil)
	for _, key := range u.keys {
		v := u.variants[key]
		runs, instrs := streamedRuns(t, w, key, v.prog, v.prof)
		switch {
		case v.prog == w.Prog:
		case runs != trainRuns:
			t.Errorf("%s/%s: aligned walk completed %d runs, profiling walk %d (work-equivalence lost)",
				w.Name, key, runs, trainRuns)
		case trainRuns == 0 && instrs != trainInstrs:
			t.Errorf("%s/%s: aligned walk retired %d instructions, profiling walk %d, both completing no run (budget lost)",
				w.Name, key, instrs, trainInstrs)
		}
	}
}

// streamedRuns drains prog's walker-backed stream under pf and returns the
// number of complete program runs it generated and the instructions it
// retired.
func streamedRuns(t *testing.T, w *workload.Workload, key string, prog *ir.Program, pf *profile.Profile) (int, uint64) {
	t.Helper()
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatalf("%s/%s: CompileLayout: %v", w.Name, key, err)
	}
	src, err := w.Stream(prog, pf, lay, 0)
	if err != nil {
		t.Fatalf("%s/%s: Stream: %v", w.Name, key, err)
	}
	defer src.Close()
	var b trace.Batch
	for {
		ok, err := src.Fill(&b)
		if err != nil {
			t.Fatalf("%s/%s: Fill: %v", w.Name, key, err)
		}
		if !ok {
			break
		}
	}
	rr, ok := src.(interface{ Runs() int })
	if !ok {
		t.Fatalf("%s/%s: walker-backed stream reports no run count", w.Name, key)
	}
	return rr.Runs(), src.Instrs()
}

// streamMatchesRun streams prog under pf and requires the decoded batches
// and the instruction count to equal what w.Run pushes.
func streamMatchesRun(t *testing.T, w *workload.Workload, key string, prog *ir.Program, pf *profile.Profile) {
	t.Helper()
	var rec trace.Recorder
	instrs, err := w.Run(prog, pf, &rec, nil)
	if err != nil {
		t.Fatalf("%s/%s: Run: %v", w.Name, key, err)
	}
	if len(rec.Events) == 0 {
		t.Fatalf("%s/%s: Run pushed no events", w.Name, key)
	}
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatalf("%s/%s: CompileLayout: %v", w.Name, key, err)
	}
	src, err := w.Stream(prog, pf, lay, 0)
	if err != nil {
		t.Fatalf("%s/%s: Stream: %v", w.Name, key, err)
	}
	defer src.Close()
	var got []trace.Event
	var b trace.Batch
	for {
		ok, err := src.Fill(&b)
		if err != nil {
			t.Fatalf("%s/%s: Fill: %v", w.Name, key, err)
		}
		if !ok {
			break
		}
		if err := lay.Decode(&b, func(e trace.Event) { got = append(got, e) }); err != nil {
			t.Fatalf("%s/%s: Decode: %v", w.Name, key, err)
		}
	}
	if len(got) != len(rec.Events) {
		t.Errorf("%s/%s: streamed %d events, Run pushed %d", w.Name, key, len(got), len(rec.Events))
	}
	for i := range min(len(got), len(rec.Events)) {
		if got[i] != rec.Events[i] {
			t.Errorf("%s/%s: event %d: stream %+v, Run %+v", w.Name, key, i, got[i], rec.Events[i])
			break
		}
	}
	if got := src.Instrs(); got != instrs {
		t.Errorf("%s/%s: streamed %d instrs, Run retired %d", w.Name, key, got, instrs)
	}
}

// replayWorkloads are every VM workload: the eight paper kernels and the
// five extended families, two of which (mp, kmp) repeat their run.
var replayWorkloads = append(append([]string{}, kernelWorkloads...), workload.ExtNames()...)

// TestStreamPerSiteParityAcrossGrid is the generation half of the per-site
// guarantee for the VM workloads: for every variant gridVariants returns,
// the batches w.Stream produces — the original's decision log replayed
// through the variant's layout — decoded through the layout, equal the
// events w.Run pushes as the VM executes that layout, field for field, with
// the same instruction count. Equal event sequences give every consumer —
// flat kernel, reference simulator, per-site recorder — the same per-site
// attribution from either generator, so a divergence in
// TestKernelPerSiteParityAcrossGrid that this test does not share lies in
// the kernel, not in the stream. A walker-backed workload's stream needs
// no such check: Run decodes the same trace.WalkSource.
func TestStreamPerSiteParityAcrossGrid(t *testing.T) {
	t.Parallel()
	for _, name := range replayWorkloads {
		t.Run(name, func(t *testing.T) {
			u, keys := gridVariants(t, name, predict.AllArchs())
			for _, key := range keys {
				v := u.variants[key]
				streamMatchesRun(t, u.w, key, v.prog, v.prof)
			}
		})
	}
}
