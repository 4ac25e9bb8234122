// Package workload provides the benchmark suite standing in for the paper's
// traced programs (SPEC92 plus C++ applications). Two kinds of workload are
// provided:
//
//   - kernels: hand-written assembly programs with real semantics (sorting,
//     neural-net inner loops, compression, an expression interpreter, ...)
//     executed by the VM, so their traces are genuine executions and their
//     aligned variants are checked to compute identical results;
//   - synthetic programs: control-flow graphs generated to match each paper
//     program's Table 2 statistics (break density, taken rate, break-kind
//     mix, branch-site skew), traced by the profile-faithful walker.
//
// The paper's inputs are proprietary benchmark suites we do not have; the
// predictor and alignment machinery observe only the dynamic break stream
// and the CFG, which both kinds of workload produce faithfully.
package workload

import (
	"fmt"
	"sync"

	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/vm"
)

// Class groups programs the way the paper's tables do.
type Class string

// The paper's three program groups.
const (
	SPECfp  Class = "SPECfp92"
	SPECint Class = "SPECint92"
	Other   Class = "Other"
)

// Config scales and seeds the suite.
type Config struct {
	// Scale multiplies each workload's default trace budget; 1.0 gives the
	// default ~1M-instruction traces, larger values longer traces. Values
	// <= 0 mean 1.0.
	Scale float64
	// Seed perturbs all stochastic structure and walks; the default 0 is a
	// valid fixed seed.
	Seed int64
	// InputSeed varies the *data* a kernel workload runs on without
	// changing the program, enabling train-on-one-input /
	// evaluate-on-another experiments. Synthetic workloads fold it into
	// their walk seed.
	InputSeed int64
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1.0
	}
	return c.Scale
}

// Workload is one benchmark program: its original binary plus the machinery
// to execute or walk any layout-variant of it.
type Workload struct {
	Name  string
	Class Class
	// Prog is the original (pre-alignment) program, addresses assigned.
	Prog *ir.Program

	// VM kernels. A nonzero budget caps each run's steps.
	setup  func(*vm.VM)
	repeat int

	// Synthetic programs: the original walks for budget instructions and an
	// aligned variant for the original's completed runs, within ceiling.
	native  trace.Model
	budget  uint64
	ceiling uint64
	seed    int64
	// supplied, when set, is the training profile CollectProfile returns
	// instead of collecting one.
	supplied *profile.Profile

	// mu guards the two facts the original's first run fixes for every
	// variant. The experiment engine streams a workload's variants in
	// concurrent tasks, the original's among them, so the first write may
	// race with reads.
	mu sync.Mutex
	// runs is the number of complete program runs the original walk
	// finished within the budget; walks of aligned variants stop after the
	// same number of runs so comparisons are work-equivalent.
	runs int
	// log is a VM program's decision log, recorded by the first training
	// run and read-only afterwards: every layout's Stream replays it.
	log *trace.DecisionLog
}

// origRuns returns the recorded original-walk run count (0 if no original
// walk has completed yet).
func (w *Workload) origRuns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runs
}

// noteOrigRuns records the run count of the first completed original walk.
func (w *Workload) noteOrigRuns(runs int) {
	w.mu.Lock()
	if w.runs == 0 {
		w.runs = runs
	}
	w.mu.Unlock()
}

// DecisionLog returns a VM program's decision log, or nil before the first
// training run and for a walker-backed workload.
func (w *Workload) DecisionLog() *trace.DecisionLog {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log
}

// noteLog keeps the first recorded decision log.
func (w *Workload) noteLog(log *trace.DecisionLog) {
	w.mu.Lock()
	if w.log == nil {
		w.log = log
	}
	w.mu.Unlock()
}

// IsKernel reports whether the workload executes on the VM (true) or the
// stochastic walker (false).
func (w *Workload) IsKernel() bool { return w.native == nil }

// Run traces prog — the workload's original program or an aligned variant
// of it — delivering break events to sink and CFG observations to edges
// (either may be nil), and returns the number of instructions executed.
// It is the training run, and the reference the oracles hold Stream to.
//
// For walker-backed workloads, pf must be an edge profile keyed to prog's
// block IDs when prog is not the original program (alignment returns the
// transferred profile); for the original program pf may be nil to use the
// generator's native behaviour model.
func (w *Workload) Run(prog *ir.Program, pf *profile.Profile, sink trace.Sink, edges trace.EdgeSink) (uint64, error) {
	if w.IsKernel() {
		var total uint64
		for range w.reps() {
			machine := vm.New(prog)
			if w.setup != nil {
				w.setup(machine)
			}
			machine.MaxSteps = w.maxSteps()
			res, err := machine.Run(sink, edges)
			if err != nil {
				return total, fmt.Errorf("workload %s: %w", w.Name, err)
			}
			total += res.Instrs
		}
		return total, nil
	}

	walker, err := w.walker(prog, pf)
	if err != nil {
		return 0, err
	}
	instrs, runs, err := walker.Run(sink, edges)
	if err != nil {
		return 0, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if prog == w.Prog {
		w.noteOrigRuns(runs)
	}
	return instrs, nil
}

// WithProgram returns the FromProgram workload of prog, a rewrite of w's
// program that is not a layout of it, on w's setup, repeats and step limit.
// w must execute on the VM: a walk models only w's own program.
func (w *Workload) WithProgram(prog *ir.Program) *Workload {
	u := FromProgram(w.Name, prog, w.setup, w.budget)
	u.Class, u.repeat = w.Class, w.repeat
	return u
}

// reps returns how many times a VM program runs per trace.
func (w *Workload) reps() int { return max(w.repeat, 1) }

// maxSteps returns the step limit of each VM run: the budget, if any.
func (w *Workload) maxSteps() uint64 {
	if w.budget > 0 {
		return w.budget
	}
	return vm.DefaultMaxSteps
}

// Stream traces prog exactly as Run does — same model, seed, budget and
// work-equivalence rules — but as a pull-style trace.Source of packed
// batches against prog's layout, so the stream can be broadcast to many
// simulators without materializing the trace. batchCap 0 selects
// trace.DefaultBatchCap.
//
// A walker-backed workload streams the trace.WalkSource that Run decodes,
// so its stream is Run's by construction. A VM workload executes no
// program here: the source replays the original's decision log through
// prog, which must be a layout of the original (the training run records
// the log; Stream records it first if none has run), and the VM-vs-replay
// oracles in internal/experiments check that the stream is byte-identical
// to what Run delivers.
func (w *Workload) Stream(prog *ir.Program, pf *profile.Profile, lay *trace.Layout, batchCap int) (trace.Source, error) {
	if w.IsKernel() {
		if w.DecisionLog() == nil {
			log := trace.NewDecisionLog(w.Prog)
			if _, err := w.Run(w.Prog, nil, nil, log); err != nil {
				return nil, err
			}
			w.noteLog(log)
		}
		src, err := trace.NewReplaySource(w.DecisionLog(), prog, lay, batchCap, w.reps(), w.maxSteps())
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		return &replaySource{WalkSource: src, name: w.Name}, nil
	}

	walker, err := w.walker(prog, pf)
	if err != nil {
		return nil, err
	}
	ws, err := trace.NewWalkSource(walker, lay, batchCap)
	if err != nil {
		return nil, err
	}
	if prog == w.Prog {
		return &origWalkSource{WalkSource: ws, w: w}, nil
	}
	return ws, nil
}

// replaySource names the workload in a replay's errors, as Run does in the
// VM's.
type replaySource struct {
	*trace.WalkSource
	name string
}

func (s *replaySource) Fill(b *trace.Batch) (bool, error) {
	ok, err := s.WalkSource.Fill(b)
	if err != nil {
		err = fmt.Errorf("workload %s: %w", s.name, err)
	}
	return ok, err
}

// walker configures the walk of prog, the original program or an aligned
// variant of it. pf is prog's profile, or nil for the original program's
// native behaviour model. The original walks for the budget; once it has
// completed runs, a variant walks for as many (work-equivalence) within the
// ceiling.
func (w *Workload) walker(prog *ir.Program, pf *profile.Profile) (*trace.Walker, error) {
	var model trace.Model
	switch {
	case pf != nil:
		model = pf.Model(prog)
	case prog == w.Prog:
		model = w.native
	default:
		return nil, fmt.Errorf("workload %s: tracing a non-original program requires its profile", w.Name)
	}
	walker := &trace.Walker{Prog: prog, Model: model, Seed: w.seed, MaxInstrs: w.budget}
	if origRuns := w.origRuns(); prog != w.Prog && origRuns > 0 {
		walker.MaxRuns = origRuns
		walker.MaxInstrs = w.ceiling
	}
	return walker, nil
}

// origWalkSource wraps the original program's walk source so that, like
// Run, exhausting it records the completed-run count that makes later
// variant walks work-equivalent.
type origWalkSource struct {
	*trace.WalkSource
	w *Workload
}

func (s *origWalkSource) Fill(b *trace.Batch) (bool, error) {
	ok, err := s.WalkSource.Fill(b)
	if !ok && err == nil {
		s.w.noteOrigRuns(s.WalkSource.Runs())
	}
	return ok, err
}

// CollectProfile traces the original program and returns its edge profile
// (the "training run" of profile-guided alignment) and its instruction
// count. A workload built with a profile returns that one, after a run that
// counts the original's instructions. A VM workload's first training run
// also records the decision log that Stream replays.
func (w *Workload) CollectProfile() (*profile.Profile, uint64, error) {
	var log *trace.DecisionLog
	if w.IsKernel() && w.DecisionLog() == nil {
		log = trace.NewDecisionLog(w.Prog)
	}
	if w.supplied != nil {
		var edges trace.EdgeSink
		if log != nil {
			edges = log
		}
		instrs, err := w.Run(w.Prog, nil, nil, edges)
		if err != nil {
			return nil, 0, err
		}
		if log != nil {
			w.noteLog(log)
		}
		return w.supplied, instrs, nil
	}
	col := profile.NewCollector(w.Prog)
	var edges trace.EdgeSink = col
	if log != nil {
		edges = &trainingSink{col: col, log: log}
	}
	instrs, err := w.Run(w.Prog, nil, nil, edges)
	if err != nil {
		return nil, 0, err
	}
	if log != nil {
		w.noteLog(log)
	}
	pf := col.Profile()
	pf.Instrs = instrs
	return pf, instrs, nil
}

// trainingSink feeds one training run to the profile collector and the
// decision log through static calls, so recording the log adds no second
// interface dispatch per observation.
type trainingSink struct {
	col *profile.Collector
	log *trace.DecisionLog
}

func (s *trainingSink) Edge(procIdx int, from, to ir.BlockID) {
	s.col.Edge(procIdx, from, to)
	s.log.Edge(procIdx, from, to)
}

func (s *trainingSink) Branch(procIdx int, block ir.BlockID, taken bool) {
	s.col.Branch(procIdx, block, taken)
	s.log.Branch(procIdx, block, taken)
}

func (s *trainingSink) Instrs(n uint64) { s.col.Instrs(n) }

// Names returns the suite program names in the paper's Table 2 order.
func Names() []string {
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}

// ByName builds the named workload, searching the paper suite first and the
// extended families (ExtNames) second.
func ByName(name string, cfg Config) (*Workload, error) {
	if s, ok := byNameSpec(name); ok {
		return build(s, cfg)
	}
	return nil, fmt.Errorf("workload: unknown program %q (known: %v)", name, AllNames())
}

// Suite builds all workloads in Table 2 order.
func Suite(cfg Config) ([]*Workload, error) {
	out := make([]*Workload, 0, len(specs))
	for _, s := range specs {
		w, err := build(s, cfg)
		if err != nil {
			return nil, fmt.Errorf("workload: building %s: %w", s.Name, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// CSuite builds the SPEC92 C programs used in the paper's Figure 4 Alpha
// measurements (alvinn and ear were compiled from C too).
func CSuite(cfg Config) ([]*Workload, error) {
	var out []*Workload
	for _, name := range []string{"alvinn", "ear", "compress", "eqntott", "espresso", "gcc", "li", "sc"} {
		w, err := ByName(name, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func build(s Spec, cfg Config) (*Workload, error) {
	if s.Kernel != nil {
		prog, setup, repeat, err := s.Kernel(cfg)
		if err != nil {
			return nil, err
		}
		if err := prog.Validate(); err != nil {
			return nil, fmt.Errorf("kernel %s invalid: %w", s.Name, err)
		}
		return &Workload{Name: s.Name, Class: s.Class, Prog: prog, setup: setup, repeat: repeat}, nil
	}
	prog, model, err := synthesize(s, cfg.Seed+s.seedOffset())
	if err != nil {
		return nil, fmt.Errorf("synthesizing %s: %w", s.Name, err)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("synthesized %s invalid: %w", s.Name, err)
	}
	budget := uint64(float64(s.TraceInstrs) * cfg.scale())
	return &Workload{
		Name: s.Name, Class: s.Class, Prog: prog,
		native: model, budget: budget, ceiling: 3 * budget,
		seed: cfg.Seed + s.seedOffset() + 1 + cfg.InputSeed*7919,
	}, nil
}
