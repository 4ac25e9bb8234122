package trace

import (
	"math/rand"

	"balign/internal/ir"
)

// Model supplies the stochastic behaviour of a program's data-dependent
// control flow: the probability that each conditional branch is taken and
// the distribution over each indirect jump's targets. A Model plus a CFG is
// exactly the information an edge profile captures, so walks driven by a
// profile-derived model reproduce the profiled behaviour statistically.
type Model interface {
	// TakenProb returns the probability in [0,1] that the conditional
	// branch terminating the given block is taken.
	TakenProb(procIdx int, block ir.BlockID) float64
	// IJumpWeights returns relative weights over the indirect jump's
	// Targets slice (same length and order). A nil return means uniform.
	IJumpWeights(procIdx int, block ir.BlockID) []float64
}

// UniformModel is a Model that takes every conditional branch with a fixed
// probability and selects indirect targets uniformly. Useful for tests.
type UniformModel struct{ P float64 }

// TakenProb implements Model.
func (u UniformModel) TakenProb(int, ir.BlockID) float64 { return u.P }

// IJumpWeights implements Model.
func (u UniformModel) IJumpWeights(int, ir.BlockID) []float64 { return nil }

// DefaultMaxDepth is the walker's default call-stack depth cap.
const DefaultMaxDepth = 64

// Walker is the spec of a seeded random walk over a program's control flow
// graph: the program, the Model driving its data-dependent branches, the
// seed, and the instruction, run and call-depth limits. It stands in for
// tracing workloads whose data we do not have: the walk respects block
// sizes, call structure and the Model's branch statistics, which is all the
// branch-prediction simulators observe. WalkSource performs the walk; Run
// decodes it into events.
//
// When the walked program halts or its entry procedure returns, the walk
// restarts from the entry point (a fresh "run") until MaxInstrs have been
// executed, so short programs still produce long traces.
type Walker struct {
	Prog      *ir.Program
	Model     Model
	Seed      int64
	MaxInstrs uint64
	// MaxRuns, when positive, stops the walk after that many complete
	// program runs even if MaxInstrs has not been reached. Comparing an
	// original and an aligned program over the same number of runs makes
	// the comparison work-equivalent: the aligned program is allowed to
	// finish the same work in fewer instructions.
	MaxRuns int
	// MaxDepth caps the call stack; calls at the cap are executed as
	// straight-line instructions (the callee is skipped). Zero means
	// DefaultMaxDepth.
	MaxDepth int
}

// runBatchCap is the batch capacity of Run's WalkSource. Run decodes each
// batch as soon as it is filled, so a small batch keeps its buffers small.
const runBatchCap = 512

// Run walks the program, sending break events to sink and CFG observations
// to edges (either may be nil). It returns the number of instructions
// executed and the number of complete program runs. A program that cannot
// be laid out — nil, or with its addresses never assigned — is an error,
// and is not walked.
func (w *Walker) Run(sink Sink, edges EdgeSink) (instrs uint64, runs int, err error) {
	lay, err := CompileLayout(w.Prog)
	if err != nil {
		return 0, 0, err
	}
	src, err := NewWalkSource(w, lay, runBatchCap)
	if err != nil {
		return 0, 0, err
	}
	src.edges = edges
	var b Batch
	for {
		ok, err := src.Fill(&b)
		if err != nil {
			return src.Instrs(), src.Runs(), err
		}
		if !ok {
			break
		}
		if sink != nil {
			if err := lay.Decode(&b, sink.Event); err != nil {
				return src.Instrs(), src.Runs(), err
			}
		}
	}
	if edges != nil {
		edges.Instrs(src.Instrs())
	}
	return src.Instrs(), src.Runs(), nil
}

// pickIndex samples an index in [0, n) from the given relative weights,
// falling back to uniform when the weights are missing, mis-sized or
// degenerate. It fixes how an indirect jump draws from the walk's RNG: one
// Intn without usable weights, one Float64 with them.
func pickIndex(rng *rand.Rand, weights []float64, n int) int {
	if len(weights) != n {
		return rng.Intn(n)
	}
	total := 0.0
	for _, wt := range weights {
		if wt > 0 {
			total += wt
		}
	}
	if total <= 0 {
		return rng.Intn(n)
	}
	x := rng.Float64() * total
	for i, wt := range weights {
		if wt <= 0 {
			continue
		}
		x -= wt
		if x < 0 {
			return i
		}
	}
	return n - 1
}
