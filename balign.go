// Package balign is a branch alignment toolkit: a Go reproduction of
// Calder & Grunwald, "Reducing Branch Costs via Branch Alignment"
// (ASPLOS-VI, 1994).
//
// The package reorders the basic blocks of a program so that frequently
// executed control-flow edges become fall-throughs, guided by an edge
// profile and an architectural cost model, exactly as the paper's link-time
// transformation does. It bundles everything the paper's evaluation needed:
//
//   - a small RISC-like IR with a textual assembler and an interpreting VM;
//   - edge profiling and profile-faithful trace generation;
//   - the FALLTHROUGH, BT/FNT and LIKELY static predictors, direct-mapped
//     and correlation (gshare) pattern history tables, branch target
//     buffers, and a return stack, with trace-driven simulators;
//   - the three alignment algorithms (Pettis-Hansen Greedy, Cost, TryN)
//     and the Table 1 cost models they consult;
//   - a dual-issue Alpha-like pipeline timing model.
//
// # Quick start
//
//	prog, _ := balign.Assemble(src)
//	prof, _, _ := balign.ProfileVM(prog, nil)
//	res, _ := balign.Align(prog, prof, balign.Options{
//	    Algorithm: balign.AlgoTryN,
//	    Model:     balign.ModelFallthrough,
//	})
//	before, _ := balign.SimulateVM(balign.ArchFallthrough, prog, prof, nil)
//	after, _ := balign.SimulateVM(balign.ArchFallthrough, res.Prog, res.Prof, nil)
package balign

import (
	"io"

	"balign/internal/asm"
	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/experiments"
	"balign/internal/ir"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/vm"
)

// Core data types, re-exported for external use.
type (
	// Program is an assembled or generated program.
	Program = ir.Program
	// Proc is one procedure of a program.
	Proc = ir.Proc
	// Block is a basic block.
	Block = ir.Block
	// Profile is a whole-program edge profile.
	Profile = profile.Profile
	// Options configures alignment (algorithm, cost model, chain order,
	// TryN window).
	Options = core.Options
	// AlignResult is an aligned program plus its transferred profile and
	// rewrite statistics.
	AlignResult = core.Result
	// SimResult accumulates a prediction simulation's penalty counts.
	SimResult = predict.Result
	// VM interprets programs.
	VM = vm.VM
	// Event is one dynamic control-transfer event.
	Event = trace.Event
	// ArchID names a simulated branch prediction architecture.
	ArchID = predict.ArchID
	// CostModel prices branches under one architecture (the paper's
	// Table 1 and its dynamic-architecture variants).
	CostModel = cost.Model
	// Attributes are the paper's Table 2 per-program measurements.
	Attributes = metrics.Attributes
)

// Alignment algorithms.
const (
	// AlgoOriginal performs no reordering.
	AlgoOriginal = core.AlgoOriginal
	// AlgoGreedy is Pettis & Hansen's bottom-up chaining.
	AlgoGreedy = core.AlgoGreedy
	// AlgoCost adds the architecture cost model to every link decision.
	AlgoCost = core.AlgoCost
	// AlgoTryN is the paper's Try15 windowed exhaustive search.
	AlgoTryN = core.AlgoTryN
	// AlgoExtTSP maximizes the distance-weighted ExtTSP objective by
	// greedy chain merging with bounded splitting (Newell & Pupyrev).
	AlgoExtTSP = core.AlgoExtTSP
)

// Chain layout orders.
const (
	// OrderHottest lays chains hottest-first.
	OrderHottest = core.OrderHottest
	// OrderBTFNT uses the Pettis-Hansen BT/FNT precedence relation.
	OrderBTFNT = core.OrderBTFNT
)

// Simulated architectures (paper Tables 3 and 4, then the extensions).
const (
	ArchFallthrough = predict.ArchFallthrough
	ArchBTFNT       = predict.ArchBTFNT
	ArchLikely      = predict.ArchLikely
	ArchPHTDirect   = predict.ArchPHTDirect
	ArchPHTGshare   = predict.ArchPHTGshare
	ArchBTB64       = predict.ArchBTB64
	ArchBTB256      = predict.ArchBTB256
	ArchPHTLocal    = predict.ArchPHTLocal
	ArchTAGE        = predict.ArchTAGE
	ArchPerceptron  = predict.ArchPerceptron
)

// Alignment cost models (see internal/cost for the cycle accounting).
var (
	ModelFallthrough CostModel = cost.FallthroughModel{}
	ModelBTFNT       CostModel = cost.BTFNTModel{}
	ModelLikely      CostModel = cost.LikelyModel{}
	ModelPHT         CostModel = cost.PHTModel{}
	ModelBTB         CostModel = cost.BTBModel{}
	ModelTagged      CostModel = cost.TaggedModel{}
)

// Assemble parses assembly source into a validated program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble that panics on error.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// ModelFor returns the alignment cost model matching a simulated
// architecture.
func ModelFor(arch ArchID) (CostModel, error) { return cost.ForArch(arch) }

// ProfileVM executes the program on the VM (setup, which may be nil,
// initializes registers and memory first) and returns the edge profile and
// the number of instructions executed.
func ProfileVM(prog *Program, setup func(*VM)) (*Profile, uint64, error) {
	machine := vm.New(prog)
	if setup != nil {
		setup(machine)
	}
	col := profile.NewCollector(prog)
	res, err := machine.Run(nil, col)
	if err != nil {
		return nil, 0, err
	}
	pf := col.Profile()
	pf.Instrs = res.Instrs
	return pf, res.Instrs, nil
}

// Align reorders every procedure of prog guided by the profile. The input
// program is not modified; the result carries the rewritten program, the
// profile transferred onto its new block IDs, and rewrite statistics.
func Align(prog *Program, prof *Profile, opts Options) (*AlignResult, error) {
	return core.AlignProgram(prog, prof, opts)
}

// SimulateVM executes prog on the VM while feeding its control-transfer
// events to the named prediction architecture, returning the simulation
// result and the instruction count. prof is required by the LIKELY
// architecture (per-site hint bits) and ignored by the others.
func SimulateVM(arch ArchID, prog *Program, prof *Profile, setup func(*VM)) (SimResult, uint64, error) {
	sim, err := predict.NewSimulator(arch, prog, prof)
	if err != nil {
		return SimResult{}, 0, err
	}
	machine := vm.New(prog)
	if setup != nil {
		setup(machine)
	}
	res, err := machine.Run(sim, nil)
	if err != nil {
		return SimResult{}, 0, err
	}
	return sim.Result(), res.Instrs, nil
}

// BEP returns a simulation's branch execution penalty in cycles using the
// paper's penalties (misfetch 1 cycle, mispredict 4 cycles).
func BEP(r SimResult) uint64 { return metrics.BEPFromResult(r) }

// RelativeCPI is the paper's metric: (aligned instructions + aligned BEP) /
// original instructions.
func RelativeCPI(origInstrs, alignedInstrs, bep uint64) float64 {
	return metrics.RelativeCPI(origInstrs, alignedInstrs, bep)
}

// FallthroughPct returns the percentage of executed conditional branches
// that fell through in a simulation.
func FallthroughPct(r SimResult) float64 { return metrics.FallthroughPct(r) }

// LayoutCost prices a program's current layout under a cost model: the
// expected branch cycles given the profile's edge weights. Comparing the
// value before and after Align quantifies an alignment in isolation from
// simulation noise.
func LayoutCost(prog *Program, prof *Profile, m CostModel) float64 {
	return cost.ProgramCost(prog, prof, m)
}

// UnrollOptions configures Unroll; see core.UnrollOptions.
type UnrollOptions = core.UnrollOptions

// UnrollStats reports what Unroll did.
type UnrollStats = core.UnrollStats

// DefaultUnrollOptions returns the defaults (4-way, hot single-block loops).
func DefaultUnrollOptions() UnrollOptions { return core.DefaultUnrollOptions() }

// Unroll duplicates hot single-block loops the way the paper sketches for
// ALVINN's input_hidden: Factor copies of the body, the first Factor-1
// exiting through inverted conditionals. Returns the transformed program
// with the profile mapped onto it. Compose with Align for the full effect.
func Unroll(prog *Program, prof *Profile, opts UnrollOptions) (*Program, *Profile, UnrollStats, error) {
	return core.UnrollLoops(prog, prof, opts)
}

// ReorderProcedures lays procedures out hottest-first (the inter-procedural
// counterpart of chain ordering). Call targets are remapped; the profile,
// which is keyed by procedure name, remains valid for the result.
func ReorderProcedures(prog *Program, prof *Profile) (*Program, error) {
	return core.ReorderProcs(prog, prof)
}

// ReorderProceduresExtTSP orders whole procedures by the ExtTSP objective
// over the call graph, with I-cache-scale distance windows, so hot
// caller/callee pairs land close. Call targets are remapped; the profile
// remains valid for the result.
func ReorderProceduresExtTSP(prog *Program, prof *Profile) (*Program, error) {
	return core.ReorderProcsExtTSP(prog, prof)
}

// Summary is one evaluation-grid cell — a (program, architecture, algorithm)
// measurement — in exact, reducible form. See metrics.EncodeSummaries for
// the byte-stable text encoding.
type Summary = metrics.Summary

// SuiteOptions configures RunSuite.
type SuiteOptions struct {
	// Scale multiplies workload trace budgets (0 means 1.0; the repo's
	// tests use small fractions).
	Scale float64
	// Seed perturbs synthetic workload structure and walks.
	Seed int64
	// Window is the TryN group size; 0 means the paper's 15.
	Window int
	// MaxCombos caps TryN window enumeration; 0 means the default.
	MaxCombos int
	// Programs restricts the suite (nil = all 24 programs).
	Programs []string
	// Archs selects the simulated architectures (nil = every registered
	// architecture, predict.AllArchs).
	Archs []ArchID
	// Parallelism bounds concurrently executing experiment shards:
	// 0 = runtime.GOMAXPROCS(0), 1 = the serial oracle path. Output is
	// byte-identical at every setting.
	Parallelism int
	// Verbose enables per-shard progress logging to Log.
	Verbose bool
	// Log receives progress output; nil discards it.
	Log io.Writer
	// Kernel selects the simulation executor: "flat" (default, the
	// compiled struct-of-arrays kernel) or "ref" (the reference
	// simulators). Output is byte-identical either way.
	Kernel string
}

// RunSuite evaluates the {program x architecture x algorithm} grid on the
// parallel experiment engine and returns one Summary per cell in canonical
// order (suite program order, then architecture, then algorithm). Runs at
// different Parallelism settings return byte-identical results; the engine's
// differential oracle test enforces this.
func RunSuite(opts SuiteOptions) ([]Summary, error) {
	archs := opts.Archs
	if len(archs) == 0 {
		archs = predict.AllArchs()
	}
	cfg := experiments.Config{
		Scale: opts.Scale, Seed: opts.Seed,
		Window: opts.Window, MaxCombos: opts.MaxCombos,
		Programs:    opts.Programs,
		Parallelism: opts.Parallelism,
		Verbose:     opts.Verbose, Log: opts.Log,
		Kernel: opts.Kernel,
	}
	return experiments.Summaries(cfg, archs)
}

// EncodeSummaries renders summaries in a stable line-oriented text format;
// two runs agree exactly iff their encodings are byte-identical.
func EncodeSummaries(s []Summary) string { return metrics.EncodeSummaries(s) }
