package workload

import (
	"fmt"

	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/vm"
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

// FromProgram wraps prog as a VM workload that runs once per trace: setup
// (nil for none) initializes each run's registers and memory, and a run
// that reaches budget steps fails (0 means vm.DefaultMaxSteps). Its
// original is a copy of prog whose blocks are each their own provenance
// (Block.Orig), so any program, an aligned layout included, is an original
// whose layouts replay its decision log.
func FromProgram(name string, prog *ir.Program, setup func(*vm.VM), budget uint64) *Workload {
	own := prog.Clone()
	for _, p := range own.Procs {
		for id, b := range p.Blocks {
			b.Orig = ir.BlockID(id)
		}
	}
	return &Workload{Name: name, Class: Imported, Prog: own, setup: setup, budget: budget}
}

// Inline wraps a program posted to balignd's /v1/simulate as a workload.
// Its CollectProfile returns pf after one run of the original that counts
// its instructions, or collects a profile when pf is nil (VM only).
//
// A VM workload (walk false) is FromProgram's, with no setup. A walk
// workload needs pf: it walks pf's model from seed, the original for
// budget instructions and an aligned variant for the original's completed
// runs, within min(3·budget, limit) instructions.
func Inline(name string, prog *ir.Program, pf *profile.Profile, walk bool, seed int64, budget, limit uint64) (*Workload, error) {
	if !walk {
		w := FromProgram(name, prog, nil, budget)
		w.supplied = pf
		return w, nil
	}
	if pf == nil {
		return nil, fmt.Errorf("workload: inline walk %q needs a profile", name)
	}
	return &Workload{
		Name: name, Class: Imported, Prog: prog, supplied: pf,
		native: pf.Model(prog), budget: budget, ceiling: min(3*budget, limit), seed: seed,
	}, nil
}
