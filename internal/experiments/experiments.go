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
// holding only a bounded buffer ring in memory. Results reduce in
// canonical order, so every kernel mode and parallelism setting produces
// byte-identical output; the differential oracle tests enforce this.
package experiments

import (
	"context"
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
	// MaxCombos caps TryN window enumeration; 0 means the default.
	MaxCombos int
	// Programs restricts the suite (nil = all 24 programs). Extended
	// workload families (workload.ExtNames) are addressable here too.
	Programs []string
	// CFG lists paths of external CFG documents (JSON or DOT; see
	// internal/cfgio) to import and append to the run's workloads, each
	// walked from its embedded edge profile. With Programs empty, a run
	// with CFG paths evaluates only the imported programs.
	CFG []string
	// Kernel selects the simulation executor: "flat" (default) runs the
	// compiled flattened kernel in internal/kernel; "ref" runs the
	// interface-dispatched reference simulators. Both produce byte-identical
	// results — the kernel oracle tests enforce this.
	Kernel string
	// Parallelism bounds the number of concurrently executing experiment
	// shards. 0 means runtime.GOMAXPROCS(0); 1 selects the serial oracle
	// path. Results are byte-identical at every setting.
	Parallelism int
	// Verbose enables per-shard progress logging to Log.
	Verbose bool
	// Log receives -v progress output; nil discards it.
	Log io.Writer
	// Obs receives run telemetry: per-shard engine spans, stream counters
	// and gauges, per-procedure alignment timings, and attached "engine" /
	// "stream" / "executor" / "grid" report sections. Nil (the
	// default) disables telemetry at zero cost. Telemetry is
	// observation-only, so results are byte-identical with it on or off —
	// the differential oracle tests assert this.
	Obs *obs.Recorder
	// Ctx bounds the whole run: cancelling it (a server request deadline,
	// an interrupted CLI) aborts in-flight shards promptly — including
	// broadcasts blocked on the streaming buffer ring — and the run
	// returns the context's error. Nil means context.Background().
	Ctx context.Context
}

func (c Config) window() int {
	if c.Window <= 0 {
		return core.DefaultWindow
	}
	return c.Window
}

// engine returns the experiment engine configured by c.
func (c Config) engine() *sim.Engine {
	return sim.New(sim.Options{Parallelism: c.Parallelism, Verbose: c.Verbose, Log: c.Log, Obs: c.Obs})
}

// runIndexed shards fn(i) over n items on the configured engine. Each call
// must write only its own result slot; the engine guarantees first-error
// semantics match a serial in-order run.
func runIndexed(cfg Config, kind string, labels []string, fn func(i int) error) error {
	tasks := make([]sim.Task, len(labels))
	for i := range labels {
		i := i
		tasks[i] = sim.Task{Label: kind + "/" + labels[i], Run: func(context.Context) error { return fn(i) }}
	}
	return cfg.engine().Run(cfg.Ctx, tasks)
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

// Cell is one (architecture, algorithm) measurement.
type Cell struct {
	// CPI is the paper's relative cycles-per-instruction metric.
	CPI float64
	// FallPct is the percentage of executed conditional branches that fell
	// through.
	FallPct float64
	// CondAccuracy is the conditional branch prediction accuracy.
	CondAccuracy float64
	// Instrs is the number of instructions the traced variant retired.
	Instrs uint64
	// BEP is the branch execution penalty in cycles.
	BEP uint64
	// Res holds the exact simulation counts behind the derived metrics.
	Res predict.Result
	// IC is the variant's instruction-cache measurement (shared by every
	// architecture cell of the variant; the fetch stream does not depend on
	// the predictor).
	IC ICacheCell
}

// ProgramResult is the full evaluation matrix of one program.
type ProgramResult struct {
	Program string
	Class   workload.Class
	Cells   map[predict.ArchID]map[Algo]Cell
	// Stats reports what the TryN rewrite did (per the FALLTHROUGH-model
	// alignment, the most aggressive).
	TryStats core.RewriteStats
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
// its trace and which algorithm column the result lands in.
type simSpec struct {
	arch predict.ArchID
	algo Algo
}

// evalUnit is one program's prepared evaluation state: its profile, every
// aligned variant the architecture set needs, and the (variant -> cells)
// fan-out. Preparation is the per-program sequential prefix (profiling and
// alignment); everything downstream of it, the variant's i-cache scoring
// included, is a shardable simulation.
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
	tryStats  core.RewriteStats
}

// ICacheCell is one variant's instruction-cache measurement: the exact
// counters of an icache.Sim fed the variant's streamed trace, plus the
// derived MPKI metric.
type ICacheCell struct {
	Fetches  uint64
	Accesses uint64
	Misses   uint64
	MPKI     float64
}

// newEvalUnit profiles one workload and builds every variant the given
// architectures need.
func newEvalUnit(w *workload.Workload, archs []predict.ArchID, cfg Config) (*evalUnit, error) {
	profStart := cfg.Obs.Now()
	pf, origInstrs, err := w.CollectProfile()
	if err != nil {
		return nil, err
	}
	cfg.Obs.AddSince("exp.profile.ns", profStart)
	cfg.Obs.Add("exp.profile.programs", 1)
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
	for _, arch := range archs {
		for _, algo := range Algos() {
			add(variantKey(arch, algo), simSpec{arch, algo})
		}
	}

	buildGreedy := func(order core.ChainOrder) (*variant, error) {
		res, err := core.AlignProgram(w.Prog, pf, core.Options{
			Algorithm: core.AlgoGreedy, Order: order, Obs: cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		return &variant{prog: res.Prog, prof: res.Prof}, nil
	}

	for _, key := range u.keys {
		if u.variants[key] != nil {
			continue
		}
		switch {
		case key == "greedy":
			v, err := buildGreedy(core.OrderHottest)
			if err != nil {
				return nil, err
			}
			u.variants[key] = v
		case key == "greedy-btfnt":
			v, err := buildGreedy(core.OrderBTFNT)
			if err != nil {
				return nil, err
			}
			u.variants[key] = v
		case key == "exttsp":
			// ExtTSP is architecture-independent (its objective encodes
			// fetch locality, not predictor behaviour): one variant serves
			// every architecture. Block layout only: the suite generator
			// emits procedures in call-tree order, which measures better in
			// the i-cache than any reordering (see DESIGN.md §13), so the
			// whole-binary ReorderProcsExtTSP pass stays opt-in
			// (balign -procorder).
			ares, err := core.AlignProgram(w.Prog, pf, core.Options{
				Algorithm: core.AlgoExtTSP, Obs: cfg.Obs,
			})
			if err != nil {
				return nil, err
			}
			u.variants[key] = &variant{prog: ares.Prog, prof: ares.Prof}
		case strings.HasPrefix(key, "cost-"):
			arch := u.specs[key][0].arch
			m, order := trynModelFor(arch)
			ares, err := core.AlignProgram(w.Prog, pf, core.Options{
				Algorithm: core.AlgoCost, Model: m, Order: order, Obs: cfg.Obs,
			})
			if err != nil {
				return nil, err
			}
			u.variants[key] = &variant{prog: ares.Prog, prof: ares.Prof}
		default:
			// try-* variants: the first arch that maps here picks the model.
			arch := u.specs[key][0].arch
			m, order := trynModelFor(arch)
			ares, err := core.AlignProgram(w.Prog, pf, core.Options{
				Algorithm: core.AlgoTryN, Model: m, Order: order,
				Window: cfg.window(), MaxCombos: cfg.MaxCombos, Obs: cfg.Obs,
			})
			if err != nil {
				return nil, err
			}
			u.variants[key] = &variant{prog: ares.Prog, prof: ares.Prof}
			if arch == predict.ArchFallthrough {
				u.tryStats = ares.Stats
			}
		}
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
// cells: the same program, the same profile (the walk model of a synthetic
// program, and the LIKELY hints of every one) and, for a synthetic program,
// the same walk kind. workload.Stream stops the original program's walk at
// its instruction budget but an aligned one's after the original's run
// count, so an aligned layout equal to the original still walks
// differently. The fields are compared directly: a program has at most 16
// variants, and comparison needs no argument about hash collisions.
func (u *evalUnit) sameVariant(a, b *variant) bool {
	if !u.w.IsKernel() && (a.prog == u.w.Prog) != (b.prog == u.w.Prog) {
		return false
	}
	return sameProgram(a.prog, b.prog) && sameProfile(a.prof, b.prof)
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

// makeCell derives one cell's paper metrics from its exact simulation
// result; instrs is the traced variant's retired-instruction count.
func makeCell(origInstrs, instrs uint64, r predict.Result) Cell {
	bep := metrics.BEPFromResult(r)
	return Cell{
		CPI:          metrics.RelativeCPI(origInstrs, instrs, bep),
		FallPct:      metrics.FallthroughPct(r),
		CondAccuracy: r.CondAccuracy(),
		Instrs:       instrs,
		BEP:          bep,
		Res:          r,
	}
}

// runVariant simulates every cell of one distinct variant in a single
// streamed generation: the variant's event stream is generated once and
// broadcast to one kernel simulating every distinct architecture among its
// cells (cells folded from equal variants can share one) and to one
// i-cache consumer concurrently. The fetch stream does not depend on the predictor, so that
// one i-cache measurement is every cell's IC; rec receives its busy time as
// exp.icache.ns. cells[base:base+len(specs)], the task's own slots, receive
// the results in spec order. ctx is the shard's context: when the engine
// cancels (another shard failed, the run's deadline passed) the broadcast
// aborts promptly instead of draining the stream.
func runVariant(ctx context.Context, u *evalUnit, key string, str *sim.Streamer, exec *sim.Executor,
	rec *obs.Recorder, cells []Cell, base int) error {
	v := u.variants[key]
	lay, err := trace.CompileLayout(v.prog)
	if err != nil {
		return fmt.Errorf("evaluating %s/%s: %w", u.w.Name, key, err)
	}
	src, err := u.w.Stream(v.prog, v.prof, lay, str.BatchCap())
	if err != nil {
		return fmt.Errorf("evaluating %s/%s: %w", u.w.Name, key, err)
	}
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
	scoreICache := func(b *trace.Batch) error {
		start := rec.Now()
		err := ic.Batch(lay, b)
		rec.AddSince("exp.icache.ns", start)
		return err
	}
	results, err := exec.SimulateStream(ctx, str, lay, src, v.prog, v.prof, archs, scoreICache)
	if err != nil {
		return fmt.Errorf("evaluating %s/%s: %w", u.w.Name, key, err)
	}
	instrs := src.Instrs()
	icc := ICacheCell{Fetches: ic.Fetches, Accesses: ic.Accesses, Misses: ic.Misses, MPKI: ic.MPKI()}
	for i := range specs {
		c := makeCell(u.origInstrs, instrs, results[archOf[i]])
		c.IC = icc
		cells[base+i] = c
	}
	return nil
}

// cellSlot addresses one cell's result across the flattened grid.
type cellSlot struct {
	unit int
	spec simSpec
}

// evaluatePrograms runs the full evaluation grid over the given workloads:
// a preparation pass (profile + alignments + the fold of equal variants,
// sharded per program), then the flat {program x architecture x algorithm}
// cell grid (sharded per distinct variant, each variant's stream generated
// once and broadcast to its kernel and its i-cache consumer), then
// a canonical-order reduction.
func evaluatePrograms(ws []*workload.Workload, archs []predict.ArchID, cfg Config) ([]*ProgramResult, error) {
	eng := cfg.engine()
	exec, err := sim.NewExecutor(cfg.Kernel, cfg.Obs)
	if err != nil {
		return nil, err
	}
	str := sim.NewStreamer(0, 0, cfg.Obs)

	// Phase 1: per-program preparation.
	units := make([]*evalUnit, len(ws))
	prep := make([]sim.Task, len(ws))
	for i := range ws {
		i := i
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

	// Phase 2: the cell grid, in canonical slot order (unit, then variant
	// key, then spec), sharded one task per distinct variant: each
	// generates its stream once and broadcasts it to all of the variant's
	// architectures, filling the variant's contiguous slot range.
	var slots []cellSlot
	type variantTask struct {
		unit int
		key  string
		base int
	}
	var vtasks []variantTask
	totalKeys := 0
	for ui, u := range units {
		totalKeys += u.totalKeys
		for _, key := range u.keys {
			vtasks = append(vtasks, variantTask{unit: ui, key: key, base: len(slots)})
			for _, spec := range u.specs[key] {
				slots = append(slots, cellSlot{unit: ui, spec: spec})
			}
		}
	}
	cells := make([]Cell, len(slots))
	tasks := make([]sim.Task, len(vtasks))
	for i := range vtasks {
		vt := vtasks[i]
		u := units[vt.unit]
		tasks[i] = sim.Task{
			Label: fmt.Sprintf("%s/%s", u.w.Name, vt.key),
			Run: func(ctx context.Context) error {
				return runVariant(ctx, u, vt.key, str, exec, cfg.Obs, cells, vt.base)
			},
		}
	}
	if err := eng.Run(cfg.Ctx, tasks); err != nil {
		return nil, err
	}

	// Phase 3: deterministic reduction in canonical slot order.
	results := make([]*ProgramResult, len(units))
	for ui, u := range units {
		results[ui] = &ProgramResult{
			Program:  u.w.Name,
			Class:    u.w.Class,
			Cells:    make(map[predict.ArchID]map[Algo]Cell),
			TryStats: u.tryStats,
		}
	}
	for i, s := range slots {
		r := results[s.unit]
		if r.Cells[s.spec.arch] == nil {
			r.Cells[s.spec.arch] = make(map[Algo]Cell)
		}
		r.Cells[s.spec.arch][s.spec.algo] = cells[i]
	}

	st, sst := eng.Stats(), str.Stats()
	eng.Logf("sim: %d programs, %d cells, %d variants (%d distinct), busy %v; streamed %d variants in %d batches (peak ring %d bytes)",
		len(units), len(slots), totalKeys, len(vtasks), st.Busy, sst.Broadcasts, sst.Batches, sst.PeakLiveBytes)
	// Snapshot the engine, streamer and executor into the run report. A
	// multi-grid run (baexp all) overwrites with each grid's final state;
	// the report's counters still accumulate across grids.
	cfg.Obs.Attach("engine", st)
	cfg.Obs.Attach("stream", sst)
	cfg.Obs.Attach("executor", exec.Stats())
	return results, nil
}

// Evaluate runs the complete evaluation matrix for one workload over the
// given architectures.
func Evaluate(w *workload.Workload, archs []predict.ArchID, cfg Config) (*ProgramResult, error) {
	results, err := evaluatePrograms([]*workload.Workload{w}, archs, cfg)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Summaries evaluates the grid for the configured programs and reduces it
// to canonical metrics.Summary rows (suite program order, then architecture
// order, then algorithm order). This is the byte-comparable form the
// differential parallel-vs-serial oracle checks.
func Summaries(cfg Config, archs []predict.ArchID) ([]metrics.Summary, error) {
	ws, err := cfg.workloads()
	if err != nil {
		return nil, err
	}
	results, err := evaluatePrograms(ws, archs, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]metrics.Summary, 0, len(results)*len(archs)*len(Algos()))
	for _, r := range results {
		for _, arch := range archs {
			for _, algo := range Algos() {
				c := r.Cells[arch][algo]
				s := metrics.NewSummary(r.Program, string(arch), string(algo), 0, c.Instrs, c.Res)
				// NewSummary derives CPI from its own denominator; keep the
				// grid's exact values instead.
				s.CPI, s.FallPct, s.CondAccuracy = c.CPI, c.FallPct, c.CondAccuracy
				s.ICFetches, s.ICAccesses, s.ICMisses = c.IC.Fetches, c.IC.Accesses, c.IC.Misses
				s.ICMPKI = c.IC.MPKI
				out = append(out, s)
			}
		}
	}
	// The canonical summary grid is the run's primary artifact; attach it
	// so a -report run carries results and telemetry in one document.
	cfg.Obs.Attach("grid", out)
	return out, nil
}

// ClassAverage computes the arithmetic mean cell over a class of results,
// as the paper's per-group average rows do.
func ClassAverage(results []*ProgramResult, class workload.Class, archs []predict.ArchID) *ProgramResult {
	avg := &ProgramResult{
		Program: "avg-" + string(class),
		Class:   class,
		Cells:   make(map[predict.ArchID]map[Algo]Cell),
	}
	n := 0
	for _, r := range results {
		if r.Class != class {
			continue
		}
		n++
		for _, arch := range archs {
			if avg.Cells[arch] == nil {
				avg.Cells[arch] = make(map[Algo]Cell)
			}
			for _, algo := range Algos() {
				c := avg.Cells[arch][algo]
				rc := r.Cells[arch][algo]
				c.CPI += rc.CPI
				c.FallPct += rc.FallPct
				c.CondAccuracy += rc.CondAccuracy
				avg.Cells[arch][algo] = c
			}
		}
	}
	if n == 0 {
		return avg
	}
	for _, arch := range archs {
		for _, algo := range Algos() {
			c := avg.Cells[arch][algo]
			c.CPI /= float64(n)
			c.FallPct /= float64(n)
			c.CondAccuracy /= float64(n)
			avg.Cells[arch][algo] = c
		}
	}
	return avg
}
