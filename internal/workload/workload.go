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

	// VM kernels.
	setup  func(*vm.VM)
	repeat int

	// Synthetic programs.
	native trace.Model
	budget uint64
	seed   int64
	// runs is the number of complete program runs the original walk
	// finished within the budget; walks of aligned variants stop after the
	// same number of runs so comparisons are work-equivalent. It is set
	// lazily by the first original-program walk, which may race with
	// concurrent variant walks when the experiment engine shards one
	// workload's cells — hence the mutex.
	runsMu sync.Mutex
	runs   int
}

// origRuns returns the recorded original-walk run count (0 if no original
// walk has completed yet).
func (w *Workload) origRuns() int {
	w.runsMu.Lock()
	defer w.runsMu.Unlock()
	return w.runs
}

// noteOrigRuns records the run count of the first completed original walk.
func (w *Workload) noteOrigRuns(runs int) {
	w.runsMu.Lock()
	if w.runs == 0 {
		w.runs = runs
	}
	w.runsMu.Unlock()
}

// IsKernel reports whether the workload executes on the VM (true) or the
// stochastic walker (false).
func (w *Workload) IsKernel() bool { return w.native == nil }

// Run traces prog — the workload's original program or an aligned variant
// of it — delivering break events to sink and CFG observations to edges
// (either may be nil), and returns the number of instructions executed.
//
// For walker-backed workloads, pf must be an edge profile keyed to prog's
// block IDs when prog is not the original program (alignment returns the
// transferred profile); for the original program pf may be nil to use the
// generator's native behaviour model.
func (w *Workload) Run(prog *ir.Program, pf *profile.Profile, sink trace.Sink, edges trace.EdgeSink) (uint64, error) {
	if w.IsKernel() {
		var total uint64
		reps := w.repeat
		if reps <= 0 {
			reps = 1
		}
		for i := 0; i < reps; i++ {
			machine := vm.New(prog)
			if w.setup != nil {
				w.setup(machine)
			}
			res, err := machine.Run(sink, edges)
			if err != nil {
				return total, fmt.Errorf("workload %s: %w", w.Name, err)
			}
			total += res.Instrs
		}
		return total, nil
	}

	var model trace.Model
	switch {
	case pf != nil:
		model = pf.Model(prog)
	case prog == w.Prog:
		model = w.native
	default:
		return 0, fmt.Errorf("workload %s: tracing a non-original program requires its profile", w.Name)
	}
	walker := &trace.Walker{
		Prog:      prog,
		Model:     model,
		Seed:      w.seed,
		MaxInstrs: w.budget,
	}
	if origRuns := w.origRuns(); prog != w.Prog && origRuns > 0 {
		// Work-equivalence: walk the variant for as many complete runs as
		// the original managed, with a generous instruction ceiling.
		walker.MaxRuns = origRuns
		walker.MaxInstrs = w.budget * 3
	}
	instrs, runs := walker.Run(sink, edges)
	if prog == w.Prog {
		w.noteOrigRuns(runs)
	}
	return instrs, nil
}

// Stream traces prog exactly as Run does — same model, seed, budget and
// work-equivalence rules — but as a pull-style trace.Source of packed
// batches against prog's layout, so the stream can be broadcast to many
// simulators without materializing the trace. batchCap 0 selects
// trace.DefaultBatchCap.
//
// VM kernels run on a generator goroutine behind a trace.FuncSource;
// walker-backed workloads use the compiled trace.WalkSource directly. The
// event stream is byte-identical to what Run would deliver — the
// stream-vs-Run event oracles in internal/experiments enforce this.
func (w *Workload) Stream(prog *ir.Program, pf *profile.Profile, lay *trace.Layout, batchCap int) (trace.Source, error) {
	if w.IsKernel() {
		return trace.NewFuncSource(lay, batchCap, func(sink trace.Sink) (uint64, error) {
			return w.Run(prog, pf, sink, nil)
		}), nil
	}

	var model trace.Model
	switch {
	case pf != nil:
		model = pf.Model(prog)
	case prog == w.Prog:
		model = w.native
	default:
		return nil, fmt.Errorf("workload %s: streaming a non-original program requires its profile", w.Name)
	}
	walker := &trace.Walker{
		Prog:      prog,
		Model:     model,
		Seed:      w.seed,
		MaxInstrs: w.budget,
	}
	if origRuns := w.origRuns(); prog != w.Prog && origRuns > 0 {
		walker.MaxRuns = origRuns
		walker.MaxInstrs = w.budget * 3
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
// (the "training run" of profile-guided alignment).
func (w *Workload) CollectProfile() (*profile.Profile, uint64, error) {
	col := profile.NewCollector(w.Prog)
	instrs, err := w.Run(w.Prog, nil, nil, col)
	if err != nil {
		return nil, 0, err
	}
	pf := col.Profile()
	pf.Instrs = instrs
	return pf, instrs, nil
}

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
	prog, model := synthesize(s, cfg.Seed+s.seedOffset())
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("synthesized %s invalid: %w", s.Name, err)
	}
	budget := uint64(float64(s.TraceInstrs) * cfg.scale())
	return &Workload{
		Name: s.Name, Class: s.Class, Prog: prog,
		native: model, budget: budget,
		seed: cfg.Seed + s.seedOffset() + 1 + cfg.InputSeed*7919,
	}, nil
}
