package experiments

import (
	"reflect"
	"slices"
	"testing"

	"balign/internal/core"
	"balign/internal/kernel"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/sim"
	"balign/internal/trace"
	"balign/internal/workload"
)

// kernelWorkloads are the eight VM-executed workload kernels: the programs
// whose traces come from real computation rather than a stochastic walk.
var kernelWorkloads = []string{
	"alvinn", "ear", "tomcatv", "compress", "eqntott", "espresso", "li", "sc",
}

// TestKernelMatchesReferenceGrid is the flat-kernel half of the
// differential oracle: the full {program x architecture x algorithm} grid
// run on the reference executor (-kernel=ref) must be byte-identical to the
// same grid on the compiled flat kernel (-kernel=flat), over every workload
// kernel and every static and dynamic architecture.
func TestKernelMatchesReferenceGrid(t *testing.T) {
	t.Parallel()
	archs := predict.AllArchs()
	run := func(mode string) string {
		cfg := fastCfg(kernelWorkloads...)
		cfg.Kernel = mode
		s, err := Summaries(cfg, archs)
		if err != nil {
			t.Fatalf("kernel=%s: %v", mode, err)
		}
		if want := len(kernelWorkloads) * len(archs) * len(Algos()); len(s) != want {
			t.Fatalf("kernel=%s: %d summaries, want %d", mode, len(s), want)
		}
		return metrics.EncodeSummaries(s)
	}
	ref := run("ref")
	flat := run("flat")
	if ref != flat {
		t.Errorf("flat kernel grid diverges from reference:\n%s", firstDiff(ref, flat))
	}
	// The default mode is the flat kernel.
	if def := run(""); def != flat {
		t.Errorf("default kernel mode is not flat:\n%s", firstDiff(flat, def))
	}
}

// gridVariants builds the named workload's evaluation unit and returns it
// with the keys of every variant the per-variant oracles check: the grid's
// distinct variants (orig, Greedy in both chain orders, Cost and Try15 per
// cost model, ExtTSP, after preparation folds equal ones; a folded key is
// the same variant, so TestFoldMatchesDigest covers it instead) plus the
// paper's Cost heuristic under the FALLTHROUGH model with no chain order,
// which the tables ablate but evalUnit does not fan out. That extra
// variant gets one FALLTHROUGH cell, in the grid's FALLTHROUGH/cost row,
// so runVariant can evaluate it like any other.
func gridVariants(t *testing.T, name string, archs []predict.ArchID) (*evalUnit, []string) {
	t.Helper()
	cfg := fastCfg(name)
	w, err := workload.ByName(name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	u, err := newEvalUnit(w, archs, cfg)
	if err != nil {
		t.Fatalf("newEvalUnit: %v", err)
	}
	cm, _ := trynModelFor(predict.ArchFallthrough)
	cres, err := core.AlignProgram(w.Prog, u.pf, core.Options{Algorithm: core.AlgoCost, Model: cm})
	if err != nil {
		t.Fatalf("AlignProgram(cost): %v", err)
	}
	u.variants["cost"] = &variant{prog: cres.Prog, prof: cres.Prof}
	row := slices.Index(archs, predict.ArchFallthrough)*len(Algos()) + slices.Index(Algos(), AlgoCost)
	u.specs["cost"] = []simSpec{{predict.ArchFallthrough, AlgoCost, row}}
	return u, append(append([]string{}, u.keys...), "cost")
}

// TestKernelPerSiteParityAcrossGrid proves the per-site guarantee behind
// the byte-identical reports: for every workload kernel, every variant
// gridVariants returns, and every architecture, a single streamed
// generation broadcast to one kernel compiled for every architecture — the
// way the executor feeds it — yields results and per-site penalty counts
// equal to the reference simulator replaying the events the same workload
// pushes through w.Run.
func TestKernelPerSiteParityAcrossGrid(t *testing.T) {
	t.Parallel()
	archs := predict.AllArchs()
	for _, name := range kernelWorkloads {
		t.Run(name, func(t *testing.T) {
			u, keys := gridVariants(t, name, archs)
			str := sim.NewStreamer(nil)
			for _, key := range keys {
				v := u.variants[key]
				var rec trace.Recorder
				instrs, err := u.w.Run(v.prog, v.prof, &rec, nil)
				if err != nil {
					t.Fatalf("%s: Run: %v", key, err)
				}
				lay, err := trace.CompileLayout(v.prog)
				if err != nil {
					t.Fatalf("%s: CompileLayout: %v", key, err)
				}
				src, err := u.w.Stream(v.prog, v.prof, lay, 0)
				if err != nil {
					t.Fatalf("%s: Stream: %v", key, err)
				}

				// One streamed generation feeds one kernel over every
				// architecture...
				k, err := kernel.CompileArchs(lay, v.prog, v.prof, archs, nil)
				if err != nil {
					t.Fatalf("%s: CompileArchs: %v", key, err)
				}
				if err := str.Broadcast(nil, src, []func(*trace.Batch) error{k.RunBatch}); err != nil {
					t.Fatalf("%s: Broadcast: %v", key, err)
				}
				if got := src.Instrs(); got != instrs {
					t.Errorf("%s: streamed %d instrs, Run retired %d", key, got, instrs)
				}
				src.Close()

				// ...and each architecture must match the reference per-site
				// attribution over the pushed events exactly.
				results := k.Results()
				for i, arch := range archs {
					ref, err := predict.NewSimulator(arch, v.prog, v.prof)
					if err != nil {
						t.Fatalf("%s/%s: NewSimulator: %v", key, arch, err)
					}
					wantRes, wantCosts := kernel.ReferenceRun(ref, rec.Events)
					if got := results[i]; got != wantRes {
						t.Errorf("%s/%s: Result mismatch:\n kernel    %+v\n reference %+v",
							key, arch, got, wantRes)
					}
					if got := k.SiteCostsOf(i); !reflect.DeepEqual(got, wantCosts) {
						t.Errorf("%s/%s: per-site costs diverge (%d kernel sites, %d reference sites)",
							key, arch, len(got), len(wantCosts))
					}
				}
			}
		})
	}
}
