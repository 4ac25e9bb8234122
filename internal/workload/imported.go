package workload

import (
	"fmt"

	"balign/internal/ir"
	"balign/internal/profile"
)

// FromProfile wraps an externally imported program (typically from
// internal/cfgio) and its edge profile as a walker-backed workload, so real
// CFGs flow through the same alignment/trace/simulation grid as the
// built-in suite. The profile doubles as the behaviour model for the
// original program's walks; aligned variants are walked from the
// transferred profile exactly as for synthetic workloads.
//
// name appears in result tables; pf.Instrs (or the estimate the importer
// computed) becomes the trace budget for each walk, scaled by cfg.Scale.
func FromProfile(name string, prog *ir.Program, pf *profile.Profile, cfg Config) (*Workload, error) {
	if prog == nil || pf == nil {
		return nil, fmt.Errorf("workload: imported %q needs both program and profile", name)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("workload: imported %q invalid: %w", name, err)
	}
	budget := uint64(float64(pf.Instrs) * cfg.scale())
	if budget == 0 {
		return nil, fmt.Errorf("workload: imported %q has no instruction estimate; set instrs in the CFG document", name)
	}
	return &Workload{
		Name: name, Class: Imported, Prog: prog,
		native: pf.Model(prog), budget: budget, ceiling: 3 * budget,
		seed: cfg.Seed + 1 + cfg.InputSeed*7919,
	}, nil
}

// Inline wraps a program posted to balignd's /v1/simulate as a workload.
// Its CollectProfile returns pf after one run of the original that counts
// its instructions, or collects a profile when pf is nil (VM only).
//
// A VM workload (walk false) runs every layout once, with no setup, and
// fails a run that reaches budget steps. A walk workload needs pf: it walks
// pf's model from seed, the original for budget instructions and an
// aligned variant for the original's completed runs, within
// min(3·budget, limit) instructions.
func Inline(name string, prog *ir.Program, pf *profile.Profile, walk bool, seed int64, budget, limit uint64) (*Workload, error) {
	w := &Workload{Name: name, Class: Imported, Prog: prog, budget: budget, seed: seed, supplied: pf}
	if walk {
		if pf == nil {
			return nil, fmt.Errorf("workload: inline walk %q needs a profile", name)
		}
		w.native, w.ceiling = pf.Model(prog), min(3*budget, limit)
	}
	return w, nil
}
