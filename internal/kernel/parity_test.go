package kernel

import (
	"fmt"
	"reflect"
	"testing"

	"balign/internal/ir"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/workload"
)

// quantileFractions are the paper's Q-50/Q-90/Q-99/Q-100 coverage points.
var quantileFractions = []float64{0.50, 0.90, 0.99, 1.0}

// checkFullParity is the complete per-architecture parity predicate: total
// cycles, predictor statistics, per-site penalty counts, and per-site cycle
// quantiles must all match the reference simulator bit for bit.
func checkFullParity(t *testing.T, prog *ir.Program, prof *profile.Profile, arch predict.ArchID, events []trace.Event) {
	t.Helper()
	k, err := Compile(prog, prof, arch, nil)
	if err != nil {
		t.Fatalf("%s: Compile: %v", arch, err)
	}
	if err := runEvents(t, k, events); err != nil {
		t.Fatalf("%s: RunBatch: %v", arch, err)
	}
	sim, err := predict.NewSimulator(arch, prog, prof)
	if err != nil {
		t.Fatalf("%s: NewSimulator: %v", arch, err)
	}
	rec := NewSiteRecorder(sim)
	for i := range events {
		rec.Event(events[i])
	}

	// Predictor statistics and totals.
	if got, want := k.Result(), sim.Result(); got != want {
		t.Errorf("%s: Result mismatch:\n kernel    %+v\n reference %+v", arch, got, want)
	}
	// Total cycles (branch execution penalty).
	if got, want := metrics.BEPFromResult(k.Result()), metrics.BEPFromResult(sim.Result()); got != want {
		t.Errorf("%s: total cycles: kernel %d, reference %d", arch, got, want)
	}
	// Per-site penalty counts.
	if got := k.SiteCosts(); !reflect.DeepEqual(got, rec.Costs) {
		t.Errorf("%s: per-site costs diverge (%d kernel sites, %d reference sites)",
			arch, len(got), len(rec.Costs))
	}
	// Per-site cycle quantiles.
	gq := metrics.SiteQuantiles(k.SiteCycles(), quantileFractions)
	wq := metrics.SiteQuantiles(rec.Cycles(), quantileFractions)
	if !reflect.DeepEqual(gq, wq) {
		t.Errorf("%s: site cycle quantiles: kernel %v, reference %v", arch, gq, wq)
	}
}

// TestSyntheticWorkloadParity is the property-based half of the kernel
// oracle: randomized synthetic programs (structure varies per seed via
// internal/workload/synth.go) walked into real event streams, with the flat
// kernel required to match the reference simulator on total cycles,
// per-site costs and quantiles, and every predictor statistic, for every
// architecture including the PAg local-history extension.
func TestSyntheticWorkloadParity(t *testing.T) {
	programs := []string{"doduc", "gcc", "db++"}
	seeds := []int64{1, 2, 3}
	for _, name := range programs {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				w, err := workload.ByName(name, workload.Config{Scale: 0.02, Seed: seed})
				if err != nil {
					t.Fatalf("ByName: %v", err)
				}
				prof, _, err := w.CollectProfile()
				if err != nil {
					t.Fatalf("CollectProfile: %v", err)
				}
				var events []trace.Event
				if _, err := w.Run(w.Prog, nil, trace.SinkFunc(func(e trace.Event) {
					events = append(events, e)
				}), nil); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if len(events) == 0 {
					t.Fatal("workload produced no events")
				}
				for _, arch := range allArchs() {
					checkFullParity(t, w.Prog, prof, arch, events)
				}
			})
		}
	}
}

// TestVMWorkloadParity replays one deterministic VM-executed workload (real
// computation, not a stochastic walk) through the full parity predicate.
func TestVMWorkloadParity(t *testing.T) {
	w, err := workload.ByName("eqntott", workload.Config{Scale: 0.05})
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	prof, _, err := w.CollectProfile()
	if err != nil {
		t.Fatalf("CollectProfile: %v", err)
	}
	var events []trace.Event
	if _, err := w.Run(w.Prog, prof, trace.SinkFunc(func(e trace.Event) {
		events = append(events, e)
	}), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("workload produced no events")
	}
	for _, arch := range allArchs() {
		checkFullParity(t, w.Prog, prof, arch, events)
	}
}
