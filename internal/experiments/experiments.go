// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (cost model), Table 2 (program attributes), Table 3
// (static architectures), Table 4 (dynamic architectures), Figures 1-3
// (worked examples) and Figure 4 (total execution time on the Alpha-like
// pipeline model), plus the §6.1 ablations (chain ordering, TryN window).
//
// The evaluation grid — every {program x architecture x algorithm} cell —
// runs on the parallel experiment engine in internal/sim: alignment and
// profiling are prepared per program and equal variants fold, then each
// distinct variant's event stream is generated once and broadcast
// batch-by-batch to one kernel simulating all of its architectures,
// holding only one batch in memory. Each cell writes its own
// metrics.Summary row of a slice laid out in canonical order, so every
// kernel mode and parallelism setting produces byte-identical output; the
// differential oracle tests enforce this. Every other experiment streams
// each of its layouts through the same path.
package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"balign/internal/cfgio"
	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/icache"
	"balign/internal/ir"
	"balign/internal/metrics"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/sim"
	"balign/internal/trace"
	"balign/internal/workload"
)

// Algo names the program versions every table compares.
type Algo string

// The paper's three columns per architecture, plus the Cost heuristic the
// paper describes (previously evaluated only in the §6.1 ablation) and the
// ExtTSP chain-merging layout with cross-procedure ordering.
const (
	AlgoOrig   Algo = "orig"
	AlgoGreedy Algo = "greedy"
	AlgoCost   Algo = "cost"
	AlgoTry    Algo = "try15"
	AlgoExtTSP Algo = "exttsp"
)

// Algos returns the column order (the algorithm ladder, weakest first).
func Algos() []Algo { return []Algo{AlgoOrig, AlgoGreedy, AlgoCost, AlgoTry, AlgoExtTSP} }

// Config scopes an experiment run.
type Config struct {
	// Scale multiplies workload trace budgets (1.0 = default ~1.5-2M
	// instruction traces; the paper's tables used billions — see DESIGN.md
	// for the scaling argument).
	Scale float64
	// Seed perturbs synthetic workload structure and walks.
	Seed int64
	// Window is the TryN group size; 0 means the paper's 15.
	Window int
	// Programs restricts the suite (nil = all 24 programs). Extended
	// workload families (workload.ExtNames) are addressable here too.
	Programs []string
	// CFG lists paths of external CFG documents (JSON or DOT; see
	// internal/cfgio) to import and append to the run's workloads, each
	// walked from its embedded edge profile. With Programs empty, a run
	// with CFG paths evaluates only the imported programs.
	CFG []string
	// Kernel selects the simulation executor of every experiment: "flat"
	// (default) runs the compiled flattened kernel in internal/kernel;
	// "ref" runs the interface-dispatched reference simulators. Both
	// produce byte-identical results — the kernel oracle tests and
	// cmd/baexp's studies golden enforce this.
	Kernel string
	// Parallelism bounds the number of concurrently executing experiment
	// shards. 0 means runtime.GOMAXPROCS(0); 1 selects the serial oracle
	// path. Results are byte-identical at every setting.
	Parallelism int
	// Log receives per-shard progress lines; nil (the default) discards
	// them.
	Log io.Writer
	// Obs receives run telemetry: per-shard engine spans, the engine,
	// stream and executor counters and gauges, per-procedure alignment
	// timings, and two report sections: the summary grid as "grid" and
	// Table 2's rows as "table2". Nil (the default) disables telemetry at
	// zero cost. Telemetry is observation-only, so results are
	// byte-identical with it on or off — the differential oracle tests
	// assert this.
	Obs *obs.Recorder
	// Ctx bounds the whole run: cancelling it (a server request deadline,
	// an interrupted CLI) aborts in-flight shards promptly — a broadcast
	// stops at its next batch — and the run returns the context's error.
	// Nil means context.Background().
	Ctx context.Context
	// Algos restricts the grid's columns (nil = all of Algos()).
	// Preparation builds only the variants these columns replay, and rows
	// come out in canonical column order whatever order Algos lists.
	Algos []Algo
	// Streamer is the broadcast stage every experiment streams through;
	// nil means a fresh one per run. A process that runs several
	// experiments or requests passes its own, so that one arena and one set
	// of sim.stream.* gauges serve them all.
	Streamer *sim.Streamer
}

// ErrProfile and ErrAlign mark the preparation phase a grid error came
// from: the original program's training run, or an alignment. Any other
// error comes from a variant's generation or simulation, or from Ctx.
var (
	ErrProfile = errors.New("profiling")
	ErrAlign   = errors.New("aligning")
)

// algos returns the configured columns in canonical order.
func (c Config) algos() []Algo {
	if len(c.Algos) == 0 {
		return Algos()
	}
	return slices.DeleteFunc(Algos(), func(a Algo) bool { return !slices.Contains(c.Algos, a) })
}

// engine returns the experiment engine configured by c.
func (c Config) engine() *sim.Engine {
	return sim.New(sim.Options{Parallelism: c.Parallelism, Log: c.Log, Obs: c.Obs})
}

// runIndexed shards fn(ctx, p, i) over n items on the configured engine and
// simulation path. Each call must write only its own result slot; the
// engine guarantees first-error semantics match a serial in-order run.
func runIndexed(cfg Config, kind string, labels []string, fn func(ctx context.Context, p simPath, i int) error) error {
	p, err := cfg.simPath()
	if err != nil {
		return err
	}
	tasks := make([]sim.Task, len(labels))
	for i := range labels {
		i := i
		tasks[i] = sim.Task{Label: kind + "/" + labels[i], Run: func(ctx context.Context) error { return fn(ctx, p, i) }}
	}
	return cfg.engine().Run(cfg.Ctx, tasks)
}

// simPath is the one simulation path every experiment streams through.
type simPath struct {
	str  *sim.Streamer
	exec *sim.Executor
	rec  *obs.Recorder
}

// simPath returns the configured simulation path: cfg.Streamer, or a fresh
// streamer, and an executor in cfg.Kernel's mode.
func (c Config) simPath() (simPath, error) {
	exec, err := sim.NewExecutor(c.Kernel, c.Obs)
	if err != nil {
		return simPath{}, err
	}
	str := c.Streamer
	if str == nil {
		str = sim.NewStreamer(c.Obs)
	}
	return simPath{str: str, exec: exec, rec: c.Obs}, nil
}

// stream generates v, w's program or a layout of it, once and broadcasts
// it to the consumers the caller reads: the executor simulating archs (if
// any), ic (if not nil; its busy time is exp.icache.ns) and each sink, fed
// the decoded events. It returns the results, index-aligned with archs,
// and the instructions v retired; what consumers wrote is safe to read.
func (p simPath) stream(ctx context.Context, w *workload.Workload, v *variant, archs []predict.ArchID,
	ic *icache.Sim, sinks ...trace.Sink) ([]predict.Result, uint64, error) {
	lay, err := trace.CompileLayout(v.prog)
	if err != nil {
		return nil, 0, err
	}
	src, err := w.Stream(v.prog, v.prof, lay, 0)
	if err != nil {
		return nil, 0, err
	}
	consumers := make([]func(*trace.Batch) error, 0, 4) // room for the i-cache and three sinks, on the stack
	if ic != nil {
		consumers = append(consumers, func(b *trace.Batch) error {
			start := p.rec.Now()
			err := ic.Batch(lay, b)
			p.rec.AddSince("exp.icache.ns", start)
			return err
		})
	}
	for _, s := range sinks {
		consumers = append(consumers, func(b *trace.Batch) error { return lay.Decode(b, s.Event) })
	}
	if len(archs) == 0 {
		err = p.str.Broadcast(ctx, src, consumers)
		src.Close()
		return nil, src.Instrs(), err
	}
	results, err := p.exec.SimulateStream(ctx, p.str, lay, src, v.prog, v.prof, archs, consumers...)
	return results, src.Instrs(), err
}

// Stream is the grid's simulation path for one program outside a grid:
// it generates prog, w's program or a layout of it, once and broadcasts
// it to the flat kernel simulating archs (if any) and to each sink, fed
// the decoded events. pf is prog's profile, read for LIKELY's hints and a
// walk's model; nil walks the original's native model. It returns the
// results, index-aligned with archs, and the instructions prog retired.
func Stream(ctx context.Context, w *workload.Workload, prog *ir.Program, pf *profile.Profile,
	archs []predict.ArchID, sinks ...trace.Sink) ([]predict.Result, uint64, error) {
	p, err := Config{}.simPath()
	if err != nil {
		return nil, 0, err
	}
	return p.stream(ctx, w, &variant{prog: prog, prof: pf}, archs, nil, sinks...)
}

func (c Config) workloads() ([]*workload.Workload, error) {
	wcfg := workload.Config{Scale: c.Scale, Seed: c.Seed}
	if len(c.Programs) == 0 && len(c.CFG) == 0 {
		return workload.Suite(wcfg)
	}
	var out []*workload.Workload
	for _, name := range c.Programs {
		w, err := workload.ByName(name, wcfg)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	for _, path := range c.CFG {
		w, err := ImportWorkload(path, wcfg)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// ImportWorkload reads a CFG document (JSON or DOT) from path and wraps it
// as a walker-backed workload named after the document (or, when the
// document is anonymous, the file's base name).
func ImportWorkload(path string, wcfg workload.Config) (*workload.Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: reading CFG %s: %w", path, err)
	}
	prog, pf, err := cfgio.Import(data)
	if err != nil {
		return nil, fmt.Errorf("experiments: importing %s: %w", path, err)
	}
	name := prog.Name
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		prog.Name = name
	}
	return workload.FromProfile(name, prog, pf, wcfg)
}

// variant is one aligned (or original) version of a program.
type variant struct {
	prog *ir.Program
	prof *profile.Profile
}

// trynModelFor maps an architecture to the alignment cost model and chain
// order the paper uses for its Try15 columns.
func trynModelFor(arch predict.ArchID) (cost.Model, core.ChainOrder) {
	m, err := cost.ForArch(arch)
	if err != nil {
		panic(err)
	}
	order := core.OrderHottest
	if arch == predict.ArchBTFNT {
		order = core.OrderBTFNT
	}
	return m, order
}

// costGroupOf returns an architecture's registry cost group: the key that
// groups architectures sharing one model-guided alignment (both PHTs share
// the PHT model, both BTBs the BTB model, both tagged predictors the
// tagged model). Architectures reaching the variant builder have already
// been validated, so an unregistered id is an internal invariant breach.
func costGroupOf(arch predict.ArchID) string {
	d, ok := predict.Lookup(arch)
	if !ok {
		panic(fmt.Sprintf("experiments: unregistered architecture %q", arch))
	}
	return string(d.CostGroup)
}

// variantKey names the variant an (architecture, algorithm) cell replays,
// before equal variants fold.
func variantKey(arch predict.ArchID, algo Algo) string {
	switch algo {
	case AlgoGreedy:
		return variantKeyForGreedy(arch)
	case AlgoCost:
		return variantKeyForCost(arch)
	case AlgoTry:
		return variantKeyForTry(arch)
	}
	return string(algo) // orig and exttsp serve every architecture
}

// variantKeyForTry groups architectures sharing one TryN alignment, keyed
// by the registry's cost group.
func variantKeyForTry(arch predict.ArchID) string { return "try-" + costGroupOf(arch) }

// variantKeyForCost groups architectures sharing one Cost alignment, with
// the same model sharing as the TryN columns.
func variantKeyForCost(arch predict.ArchID) string { return "cost-" + costGroupOf(arch) }

// variantKeyForGreedy: the paper lays Greedy chains hottest-first for every
// simulation except BT/FNT, which uses the Pettis-Hansen precedence order.
func variantKeyForGreedy(arch predict.ArchID) string {
	if arch == predict.ArchBTFNT {
		return "greedy-btfnt"
	}
	return "greedy"
}

// simSpec names one simulation of a variant: which architecture consumes
// its trace, which algorithm column the result lands in, and the index of
// its row among the unit's rows (architecture order, then algorithm order).
type simSpec struct {
	arch predict.ArchID
	algo Algo
	row  int
}

// evalUnit is one program's prepared evaluation state: its profile, every
// aligned variant the architectures and columns need, and the
// (variant -> cells) fan-out. Preparation is the per-program sequential
// prefix (profiling and alignment); everything downstream of it, the
// variant's i-cache scoring included, is a shardable simulation.
//
// After preparation an evalUnit is read-only and safe to share across
// worker goroutines.
type evalUnit struct {
	w          *workload.Workload
	pf         *profile.Profile
	origInstrs uint64
	// variants maps every variant key to its variant, folded keys included.
	variants map[string]*variant
	// keys lists the distinct variants' keys in canonical (first-need)
	// order; specs maps each to the cells that replay its trace: its own
	// in architecture order, then those of every key folded into it.
	// totalKeys counts the keys before the fold.
	keys      []string
	specs     map[string][]simSpec
	totalKeys int
}

// newEvalUnit profiles one workload and builds every variant the given
// architectures and the configured columns need.
func newEvalUnit(w *workload.Workload, archs []predict.ArchID, cfg Config) (*evalUnit, error) {
	profStart := cfg.Obs.Now()
	pf, origInstrs, err := w.CollectProfile()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrProfile, err)
	}
	cfg.Obs.AddSince("exp.profile.ns", profStart)
	cfg.Obs.Add("exp.profile.programs", 1)
	if log := w.DecisionLog(); log != nil {
		cfg.Obs.Add("exp.replay.decisions", int64(log.Len()))
		cfg.Obs.Add("exp.replay.log_bytes", int64(log.SizeBytes()))
	}
	u := &evalUnit{
		w: w, pf: pf, origInstrs: origInstrs,
		variants: map[string]*variant{"orig": {prog: w.Prog, prof: pf}},
		specs:    map[string][]simSpec{},
	}

	add := func(key string, spec simSpec) {
		if _, ok := u.specs[key]; !ok {
			u.keys = append(u.keys, key)
		}
		u.specs[key] = append(u.specs[key], spec)
	}
	algos := cfg.algos()
	for i, arch := range archs {
		for j, algo := range algos {
			add(variantKey(arch, algo), simSpec{arch, algo, i*len(algos) + j})
		}
	}

	for _, key := range u.keys {
		if u.variants[key] != nil {
			continue
		}
		// The first architecture that maps to a key picks its model and
		// chain order.
		arch := u.specs[key][0].arch
		m, order := trynModelFor(arch)
		opts := core.Options{Order: order, Obs: cfg.Obs}
		switch {
		case strings.HasPrefix(key, "greedy"):
			opts.Algorithm = core.AlgoGreedy
		case key == "exttsp":
			// ExtTSP is architecture-independent (its objective encodes
			// fetch locality, not predictor behaviour): one variant serves
			// every architecture. Block layout only: the suite generator
			// emits procedures in call-tree order, which measures better in
			// the i-cache than any reordering (see DESIGN.md §13), so the
			// whole-binary ReorderProcsExtTSP pass stays opt-in
			// (balign -procorder).
			opts = core.Options{Algorithm: core.AlgoExtTSP, Obs: cfg.Obs}
		case strings.HasPrefix(key, "cost-"):
			opts.Algorithm, opts.Model = core.AlgoCost, m
		default: // try-*
			opts.Algorithm, opts.Model = core.AlgoTryN, m
			opts.Window = cfg.Window
		}
		res, err := core.AlignProgram(w.Prog, pf, opts)
		if err != nil {
			return nil, fmt.Errorf("%w %s/%s: %w", ErrAlign, w.Name, key, err)
		}
		u.variants[key] = &variant{prog: res.Prog, prof: res.Prof}
	}

	// Fold every key into the first earlier key whose variant is equal, so
	// phase 2 streams, simulates and scores each distinct variant once.
	u.totalKeys = len(u.keys)
	distinct := u.keys[:0]
	for _, key := range u.keys {
		i := slices.IndexFunc(distinct, func(k string) bool { return u.sameVariant(u.variants[k], u.variants[key]) })
		if i < 0 {
			distinct = append(distinct, key)
			continue
		}
		u.specs[distinct[i]] = append(u.specs[distinct[i]], u.specs[key]...)
		delete(u.specs, key)
	}
	u.keys = distinct
	cfg.Obs.Add("exp.variants.total", int64(u.totalKeys))
	cfg.Obs.Add("exp.variants.distinct", int64(len(distinct)))
	return u, nil
}

// sameVariant reports whether a and b stream the same trace to the same
// cells. The fields compared are the ones the cells read. Both executors
// read only a profile's branch counts (the LIKELY hints). A VM variant's
// stream replays the workload's decision log through the program, so it
// reads no profile: VM variants are equal when their programs and branch
// counts are. A synthetic program's walk reads the whole profile, its
// model, and its walk kind: workload.Stream stops the original program's
// walk at its instruction budget but an aligned one's after the original's
// run count, so an aligned layout equal to the original still walks
// differently. The fields are compared directly: a program has at most 16
// variants, and comparison needs no argument about hash collisions.
func (u *evalUnit) sameVariant(a, b *variant) bool {
	if u.w.IsKernel() {
		return sameProgram(a.prog, b.prog) && sameBranches(a.prof, b.prof)
	}
	return (a.prog == u.w.Prog) == (b.prog == u.w.Prog) &&
		sameProgram(a.prog, b.prog) && sameProfile(a.prof, b.prof)
}

// sameProgram compares what ir.Program.Format prints (names, entry
// procedure, memory size, labels and whole instructions) plus block
// addresses. Block.Orig, the rewriter's provenance, is left out: no
// simulator reads it.
func sameProgram(a, b *ir.Program) bool {
	if a.Name != b.Name || a.EntryProc != b.EntryProc || a.MemWords != b.MemWords {
		return false
	}
	return slices.EqualFunc(a.Procs, b.Procs, func(pa, pb *ir.Proc) bool {
		return pa.Name == pb.Name && slices.EqualFunc(pa.Blocks, pb.Blocks, func(ba, bb *ir.Block) bool {
			return ba.Label == bb.Label && ba.Addr == bb.Addr && slices.EqualFunc(ba.Instrs, bb.Instrs, sameInstr)
		})
	})
}

func sameInstr(a, b ir.Instr) bool {
	return a.Op == b.Op && a.Rd == b.Rd && a.Rs == b.Rs && a.Rt == b.Rt && a.Imm == b.Imm &&
		a.TargetBlock == b.TargetBlock && a.TargetProc == b.TargetProc && slices.Equal(a.Targets, b.Targets)
}

// sameProfile compares every count profile.Profile.WriteTo prints.
func sameProfile(a, b *profile.Profile) bool {
	return a.Program == b.Program && a.Instrs == b.Instrs &&
		maps.EqualFunc(a.Procs, b.Procs, func(pa, pb *profile.ProcProfile) bool {
			return pa.EntryCount == pb.EntryCount && maps.Equal(pa.Edges, pb.Edges) &&
				maps.Equal(pa.Branches, pb.Branches)
		})
}

// sameBranches compares each procedure's branch counts.
func sameBranches(a, b *profile.Profile) bool {
	return maps.EqualFunc(a.Procs, b.Procs, func(pa, pb *profile.ProcProfile) bool {
		return maps.Equal(pa.Branches, pb.Branches)
	})
}

// cpi streams v, a variant of w, through one architecture and returns its
// relative CPI against base, the original's instruction count on w's input.
func (p simPath) cpi(ctx context.Context, w *workload.Workload, v *variant, arch predict.ArchID, base uint64) (float64, error) {
	r, instrs, err := p.stream(ctx, w, v, []predict.ArchID{arch}, nil)
	if err != nil {
		return 0, err
	}
	return metrics.RelativeCPI(base, instrs, metrics.BEPFromResult(r[0])), nil
}

// runVariant simulates every cell of one distinct variant in a single
// streamed generation: one kernel simulates every distinct architecture
// among its cells (cells folded from equal variants can share one) and the
// i-cache is scored on the same batches. The fetch stream does not depend
// on the predictor, so that one i-cache measurement is every cell's. Each
// cell's row lands in rows[spec.row], the unit's slot for it, which no other
// variant writes. ctx is the shard's context: when the engine cancels
// (another shard failed, the run's deadline passed) the broadcast aborts
// promptly instead of draining the stream.
func runVariant(ctx context.Context, u *evalUnit, key string, p simPath, rows []metrics.Summary) error {
	specs := u.specs[key]
	var archs []predict.ArchID
	archOf := make([]int, len(specs)) // index of each spec's result in archs
	for i, spec := range specs {
		j := slices.Index(archs, spec.arch)
		if j < 0 {
			j = len(archs)
			archs = append(archs, spec.arch)
		}
		archOf[i] = j
	}
	ic := icache.New(icache.DefaultConfig())
	results, instrs, err := p.stream(ctx, u.w, u.variants[key], archs, ic)
	if err != nil {
		return fmt.Errorf("evaluating %s/%s: %w", u.w.Name, key, err)
	}
	for i, spec := range specs {
		r := metrics.NewSummary(u.w.Name, string(spec.arch), string(spec.algo), u.origInstrs, instrs, results[archOf[i]])
		r.ICFetches, r.ICAccesses, r.ICMisses, r.ICMPKI = ic.Fetches, ic.Accesses, ic.Misses, ic.MPKI()
		rows[spec.row] = r
	}
	return nil
}

// evaluatePrograms runs the full evaluation grid over the given workloads:
// a preparation pass (profile + alignments + the fold of equal variants,
// sharded per program), then the cell grid, sharded per distinct variant
// with the longest program's variants first, each variant's stream
// generated once and broadcast to its kernel and its i-cache consumer.
// Every variant writes its cells' rows in place, so the rows come back in
// canonical order: workload, then architecture, then algorithm. A cell
// phase error is the first in that longest-first task order. An
// unregistered architecture is an error before any work starts.
func evaluatePrograms(ws []*workload.Workload, archs []predict.ArchID, cfg Config) ([]metrics.Summary, error) {
	for _, a := range archs {
		if _, ok := predict.Lookup(a); !ok {
			return nil, fmt.Errorf("experiments: unknown architecture %q (known: %s)",
				a, strings.Join(predict.KnownArchNames(), ", "))
		}
	}
	eng := cfg.engine()
	p, err := cfg.simPath()
	if err != nil {
		return nil, err
	}

	// Phase 1: per-program preparation.
	units := make([]*evalUnit, len(ws))
	prep := make([]sim.Task, len(ws))
	for i := range ws {
		prep[i] = sim.Task{Label: "prep/" + ws[i].Name, Run: func(context.Context) error {
			u, err := newEvalUnit(ws[i], archs, cfg)
			if err != nil {
				return err
			}
			units[i] = u
			return nil
		}}
	}
	if err := eng.Run(cfg.Ctx, prep); err != nil {
		return nil, err
	}

	// Phase 2: the cell grid, one task per distinct variant. Each unit owns
	// one block of rows, and each of its variants fills the rows of its
	// cells, so the task order does not change the rows'. Tasks queue
	// longest program first, by the original's retired instructions: a
	// variant runs about as long as its original, and a long variant
	// started last would run alone while the other workers idle. The sort
	// is stable, so equal programs keep workload order.
	perUnit := len(archs) * len(cfg.algos())
	rows := make([]metrics.Summary, len(units)*perUnit)
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(units[b].origInstrs, units[a].origInstrs) })
	var tasks []sim.Task
	totalKeys := 0
	for _, ui := range order {
		u := units[ui]
		totalKeys += u.totalKeys
		block := rows[ui*perUnit : (ui+1)*perUnit]
		for _, key := range u.keys {
			tasks = append(tasks, sim.Task{
				Label: u.w.Name + "/" + key,
				Run:   func(ctx context.Context) error { return runVariant(ctx, u, key, p, block) },
			})
		}
	}
	if err := eng.Run(cfg.Ctx, tasks); err != nil {
		return nil, err
	}
	eng.Logf("sim: %d programs, %d cells, %d variants (%d distinct)", len(units), len(rows), totalKeys, len(tasks))
	return rows, nil
}

// Summaries evaluates the grid for the configured programs and returns its
// canonical metrics.Summary rows (suite program order, then architecture
// order, then algorithm order). This is the byte-comparable form the
// differential parallel-vs-serial oracle checks.
func Summaries(cfg Config, archs []predict.ArchID) ([]metrics.Summary, error) {
	ws, err := cfg.workloads()
	if err != nil {
		return nil, err
	}
	return WorkloadSummaries(ws, archs, cfg)
}

// WorkloadSummaries is Summaries over the given workloads instead of the
// configured programs: rows in workload order, then architecture order,
// then canonical algorithm order.
func WorkloadSummaries(ws []*workload.Workload, archs []predict.ArchID, cfg Config) ([]metrics.Summary, error) {
	rows, err := evaluatePrograms(ws, archs, cfg)
	if err != nil {
		return nil, err
	}
	// The canonical summary grid is the run's primary artifact; attach it
	// so a -report run carries results and telemetry in one document.
	cfg.Obs.Attach("grid", rows)
	return rows, nil
}
