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

// TestStreamMatchesRecordedSynthetic is the generation oracle behind the
// single trace lifecycle: for every variant newEvalUnit builds — the
// original and every aligned layout — and for the profiling walk that
// precedes them, the packed batches w.Stream produces, decoded through the
// variant's layout, must equal the events w.Run pushes into a
// trace.Recorder, field for field, with the same instruction count. These
// workloads (randomized synthetic programs plus an imported CFG document)
// are walker-backed, so the stream comes from the compiled
// trace.WalkSource and the recorded events from trace.Walker: the check
// pins the two RNG draw for RNG draw through alignment and through the
// aligned variants' work-equivalent truncation, which must stop every
// aligned walk after the profiling walk's complete-run count.
func TestStreamMatchesRecordedSynthetic(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, name := range []string{"ora", "doduc", "gcc", "db++"} {
				w, err := workload.ByName(name, workload.Config{Scale: fastCfg().Scale, Seed: seed})
				if err != nil {
					t.Fatalf("ByName(%s): %v", name, err)
				}
				assertStreamMatchesRun(t, w)
			}
		})
	}
	t.Run("go_scanobject", func(t *testing.T) {
		w, err := ImportWorkload(cfgFixture, workload.Config{Scale: fastCfg().Scale})
		if err != nil {
			t.Fatal(err)
		}
		assertStreamMatchesRun(t, w)
	})
}

// assertStreamMatchesRun prepares w's evaluation unit and checks the
// profiling walk and every variant's streamed generation against the
// pushed one.
func assertStreamMatchesRun(t *testing.T, w *workload.Workload) {
	t.Helper()
	u, err := newEvalUnit(w, predict.AllArchs(), fastCfg())
	if err != nil {
		t.Fatalf("%s: newEvalUnit: %v", w.Name, err)
	}
	// The profiling walk (the original program under its native model)
	// fixes the complete-run count every aligned walk is truncated to.
	trainRuns := streamedRuns(t, w, "profile", w.Prog, nil)
	for _, key := range u.keys {
		v := u.variants[key]
		runs := streamedRuns(t, w, key, v.prog, v.prof)
		if v.prog != w.Prog && runs != trainRuns {
			t.Errorf("%s/%s: aligned walk completed %d runs, profiling walk %d (work-equivalence lost)",
				w.Name, key, runs, trainRuns)
		}
	}
}

// streamedRuns checks prog's streamed generation against w.Run and
// returns the number of complete program runs the walker-backed stream
// generated.
func streamedRuns(t *testing.T, w *workload.Workload, key string, prog *ir.Program, pf *profile.Profile) int {
	t.Helper()
	runs, ok := streamMatchesRun(t, w, key, prog, pf)
	if !ok {
		t.Fatalf("%s/%s: walker-backed stream reports no run count", w.Name, key)
	}
	return runs
}

// streamMatchesRun streams prog under pf and requires the decoded batches
// and the instruction count to equal what w.Run pushes. It returns the
// number of complete program runs the stream generated, and false for a
// stream that does not count them (only walker-backed streams do).
func streamMatchesRun(t *testing.T, w *workload.Workload, key string, prog *ir.Program, pf *profile.Profile) (runs int, counted bool) {
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
	if rr, ok := src.(interface{ Runs() int }); ok {
		return rr.Runs(), true
	}
	return 0, false
}

// TestStreamPerSiteParityAcrossGrid is the generation half of the per-site
// guarantee for the workload kernels: for every variant gridVariants
// returns, the batches w.Stream produces, decoded through the variant's
// layout, equal the events w.Run pushes, field for field, with the same
// instruction count. Equal event sequences give every consumer — flat
// kernel, reference simulator, per-site recorder — the same per-site
// attribution from either generator, so a divergence in
// TestKernelPerSiteParityAcrossGrid that this test does not share lies in
// the kernel, not in the stream. TestStreamMatchesRecordedSynthetic makes
// the same check for the walker-backed workloads.
func TestStreamPerSiteParityAcrossGrid(t *testing.T) {
	for _, name := range kernelWorkloads {
		t.Run(name, func(t *testing.T) {
			u, keys := gridVariants(t, name, predict.AllArchs())
			for _, key := range keys {
				v := u.variants[key]
				streamMatchesRun(t, u.w, key, v.prog, v.prof)
			}
		})
	}
}
