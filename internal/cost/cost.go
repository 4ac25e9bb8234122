// Package cost implements the paper's architectural cost models (Table 1):
// the per-execution cycle costs of branches under each prediction
// architecture. The Cost and Try15 alignment algorithms consult these models
// to decide which edges are worth making fall-throughs; the same models
// price a finished layout so alternative alignments can be compared.
//
// Table 1 (cycles, including the branch instruction itself):
//
//	unconditional branch            2  (instruction + misfetch)
//	correctly predicted fall-through 1 (instruction)
//	correctly predicted taken        2 (instruction + misfetch)
//	mispredicted                     5 (instruction + mispredict)
//
// For the dynamic architectures the paper adjusts the static table with
// hardware effectiveness assumptions: PHT architectures mispredict
// conditionals 10% of the time; BTB architectures additionally have a 10%
// BTB miss rate, so taken branches pay the misfetch only 10% of the time.
package cost

import (
	"fmt"

	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/profile"
)

// Table 1 constants, in cycles.
const (
	CyclesFall       = 1.0 // correctly predicted fall-through
	CyclesTakenPred  = 2.0 // correctly predicted taken (instruction + misfetch)
	CyclesUncond     = 2.0 // unconditional branch (instruction + misfetch)
	CyclesMispredict = 5.0 // mispredicted branch (instruction + mispredict)
)

// Dynamic-architecture effectiveness assumptions (paper §6, extended).
const (
	// PHTMispredictRate is the assumed conditional mispredict rate of the
	// PHT architectures.
	PHTMispredictRate = 0.10
	// BTBMissRate is the assumed BTB miss rate: the fraction of taken
	// branches that pay a misfetch because the BTB missed.
	BTBMissRate = 0.10
	// TaggedMispredictRate is the assumed conditional mispredict rate of
	// the modern tagged predictors (TAGE, hashed perceptron). These barely
	// mispredict, so almost the entire alignable cost is the misfetch on
	// correctly predicted taken branches — the regime the paper's open
	// question asks about.
	TaggedMispredictRate = 0.02
)

// Model prices branches under one prediction architecture. Weights are
// execution counts from the edge profile; costs are expected cycles summed
// over those executions.
type Model interface {
	// Name identifies the model.
	Name() string
	// CondBranch returns the expected cycles of a conditional branch whose
	// fall-through direction executes wFall times and whose taken direction
	// executes wTaken times. takenBackward reports whether the taken target
	// is laid out at or before the branch (only BT/FNT distinguishes it).
	CondBranch(wFall, wTaken uint64, takenBackward bool) float64
	// Uncond returns the expected cycles of an unconditional branch
	// executed w times.
	Uncond(w uint64) float64
}

// FallthroughModel prices branches for the FALLTHROUGH architecture: every
// taken conditional is mispredicted.
type FallthroughModel struct{}

// Name implements Model.
func (FallthroughModel) Name() string { return "fallthrough" }

// CondBranch implements Model.
func (FallthroughModel) CondBranch(wFall, wTaken uint64, _ bool) float64 {
	return float64(wFall)*CyclesFall + float64(wTaken)*CyclesMispredict
}

// Uncond implements Model.
func (FallthroughModel) Uncond(w uint64) float64 { return float64(w) * CyclesUncond }

// BTFNTModel prices branches for the backward-taken/forward-not-taken
// architecture. The prediction depends only on the displacement sign, so it
// applies to EVERY execution of the branch: a backward branch is predicted
// taken (its taken executions pay only the misfetch, but its fall-through
// executions are mispredicted), and a forward branch is predicted not taken
// (fall-throughs are free, taken executions mispredict).
type BTFNTModel struct{}

// Name implements Model.
func (BTFNTModel) Name() string { return "btfnt" }

// CondBranch implements Model.
func (BTFNTModel) CondBranch(wFall, wTaken uint64, takenBackward bool) float64 {
	if takenBackward {
		return float64(wTaken)*CyclesTakenPred + float64(wFall)*CyclesMispredict
	}
	return float64(wFall)*CyclesFall + float64(wTaken)*CyclesMispredict
}

// Uncond implements Model.
func (BTFNTModel) Uncond(w uint64) float64 { return float64(w) * CyclesUncond }

// LikelyModel prices branches for the LIKELY architecture: the profile sets
// the hint, so the majority direction is always predicted; alignment can
// only convert predicted-taken (2 cycles) into fall-through (1 cycle).
type LikelyModel struct{}

// Name implements Model.
func (LikelyModel) Name() string { return "likely" }

// CondBranch implements Model.
func (LikelyModel) CondBranch(wFall, wTaken uint64, _ bool) float64 {
	if wTaken > wFall {
		return float64(wTaken)*CyclesTakenPred + float64(wFall)*CyclesMispredict
	}
	return float64(wFall)*CyclesFall + float64(wTaken)*CyclesMispredict
}

// Uncond implements Model.
func (LikelyModel) Uncond(w uint64) float64 { return float64(w) * CyclesUncond }

// PHTModel prices branches for the pattern-history-table architectures:
// conditionals are assumed mispredicted PHTMispredictRate of the time
// regardless of direction; correct predictions still misfetch when taken.
type PHTModel struct{}

// Name implements Model.
func (PHTModel) Name() string { return "pht" }

// CondBranch implements Model.
func (PHTModel) CondBranch(wFall, wTaken uint64, _ bool) float64 {
	ok := 1 - PHTMispredictRate
	fall := ok*CyclesFall + PHTMispredictRate*CyclesMispredict
	taken := ok*CyclesTakenPred + PHTMispredictRate*CyclesMispredict
	return float64(wFall)*fall + float64(wTaken)*taken
}

// Uncond implements Model.
func (PHTModel) Uncond(w uint64) float64 { return float64(w) * CyclesUncond }

// BTBModel prices branches for the branch-target-buffer architectures:
// conditionals mispredict 10% of the time, and taken branches (conditional
// or unconditional) pay the misfetch only on the 10% of executions where the
// BTB misses.
type BTBModel struct{}

// Name implements Model.
func (BTBModel) Name() string { return "btb" }

// CondBranch implements Model.
func (BTBModel) CondBranch(wFall, wTaken uint64, _ bool) float64 {
	ok := 1 - PHTMispredictRate
	// Correctly predicted taken: 1 cycle + misfetch only on BTB miss.
	takenOK := CyclesFall + BTBMissRate*(CyclesTakenPred-CyclesFall)
	fall := ok*CyclesFall + PHTMispredictRate*CyclesMispredict
	taken := ok*takenOK + PHTMispredictRate*CyclesMispredict
	return float64(wFall)*fall + float64(wTaken)*taken
}

// Uncond implements Model.
func (BTBModel) Uncond(w uint64) float64 {
	return float64(w) * (CyclesFall + BTBMissRate*(CyclesUncond-CyclesFall))
}

// TaggedModel prices branches for the modern tagged-predictor
// architectures (TAGE, hashed perceptron): conditionals mispredict only
// TaggedMispredictRate of the time, but without a target buffer every
// taken branch still pays the misfetch — so alignment's residual win is
// almost purely the taken-to-fall-through conversion.
type TaggedModel struct{}

// Name implements Model.
func (TaggedModel) Name() string { return "tagged" }

// CondBranch implements Model.
func (TaggedModel) CondBranch(wFall, wTaken uint64, _ bool) float64 {
	ok := 1 - TaggedMispredictRate
	fall := ok*CyclesFall + TaggedMispredictRate*CyclesMispredict
	taken := ok*CyclesTakenPred + TaggedMispredictRate*CyclesMispredict
	return float64(wFall)*fall + float64(wTaken)*taken
}

// Uncond implements Model.
func (TaggedModel) Uncond(w uint64) float64 { return float64(w) * CyclesUncond }

// modelForGroup maps a registry cost group to its model.
var modelForGroup = map[predict.CostGroup]Model{
	predict.CostFallthrough: FallthroughModel{},
	predict.CostBTFNT:       BTFNTModel{},
	predict.CostLikely:      LikelyModel{},
	predict.CostPHT:         PHTModel{},
	predict.CostBTB:         BTBModel{},
	predict.CostTagged:      TaggedModel{},
}

// ForArch returns the alignment cost model matching a simulated
// architecture, resolved through the architecture registry: the
// descriptor's cost group picks the model, so a newly registered
// architecture is priced without touching this package.
func ForArch(id predict.ArchID) (Model, error) {
	d, ok := predict.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("cost: no model for architecture %q (known: %v)", id, predict.KnownArchNames())
	}
	m, ok := modelForGroup[d.CostGroup]
	if !ok {
		return nil, fmt.Errorf("cost: architecture %q has unmapped cost group %q", id, d.CostGroup)
	}
	return m, nil
}

// ProcCost prices a procedure's final layout under a model: the sum over
// all conditional and unconditional branches of their expected cycles, using
// edge weights from pp (which must be keyed by p's block IDs). Indirect
// jumps, calls and returns cost the same under every layout and are
// excluded. The procedure must have addresses assigned (BT/FNT needs
// branch/target positions).
func ProcCost(p *ir.Proc, pp *profile.ProcProfile, m Model) float64 {
	total := 0.0
	eachSite(p, pp, m, func(s SiteCost) { total += s.Cost })
	return total
}

// ProgramCost sums ProcCost over every procedure of a program using the
// profile keyed by procedure name.
func ProgramCost(prog *ir.Program, pf *profile.Profile, m Model) float64 {
	total := 0.0
	for _, p := range prog.Procs {
		if pp, ok := pf.Procs[p.Name]; ok {
			total += ProcCost(p, pp, m)
		}
	}
	return total
}
