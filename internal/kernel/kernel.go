// Package kernel is the flattened branch-event simulation kernel: the
// compiled fast path of the evaluation harness. The reference path in
// internal/predict dispatches every break event through a trace.Sink
// interface into a simulator that calls an interface-typed direction
// predictor and, for the LIKELY architecture, a map-backed hint table. That
// is flexible but costs two or three dynamic dispatches plus a 48-byte
// event copy per event, millions of times per evaluation cell.
//
// Compile precompiles one (program, architecture) pair into struct-of-arrays
// form:
//
//   - a dense PC-indexed site table (one int32 per instruction slot) mapping
//     event addresses to compact site ids with a single bounds check — no
//     map lookups;
//   - parallel per-site descriptor slices (kind, LIKELY hint bit) and
//     per-site cost accumulators (events, misfetches, mispredicts);
//   - devirtualized predictor state as flat slices: PHT/gshare/local 2-bit
//     counter arrays, BTB lines with their LRU ticks, and a fixed-size
//     return stack.
//
// RunBatch then consumes packed trace batches (4 bytes per event) with no
// interface dispatch in the inner loop. The kernel is held to exact parity
// with the reference simulators — identical predict.Result tallies and
// identical per-site penalty counts on every event stream — by the
// differential oracles in this package and in internal/experiments.
package kernel

import (
	"fmt"

	"balign/internal/ir"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
)

// class is the devirtualized architecture discriminant: the one switch the
// inner loop keys on instead of interface dispatch.
type class uint8

const (
	classFallthrough class = iota
	classBTFNT
	classLikely
	classPHTDirect
	classPHTGshare
	classPHTLocal
	classBTB
	classTAGE
	classPerceptron
)

// Site describes one static control-transfer instruction of the compiled
// program: the row of the descriptor table a dynamic event resolves to.
// The program half of the compile lives in internal/trace (the streaming
// pipeline shares one Layout across all architectures), so Site is the
// layout's descriptor row.
type Site = trace.SiteInfo

// SiteCost accumulates one site's dynamic penalty counts.
type SiteCost struct {
	// Events is the number of break events the site produced.
	Events uint64
	// Misfetches and Mispredicts count the penalty events charged to the
	// site under the paper's rules.
	Misfetches  uint64
	Mispredicts uint64
}

// Cycles returns the site's branch execution penalty in cycles under the
// given penalty weights.
func (c SiteCost) Cycles(misfetchPenalty, mispredictPenalty uint64) uint64 {
	return c.Misfetches*misfetchPenalty + c.Mispredicts*mispredictPenalty
}

// Kernel is one compiled (program, architecture) simulation. Compile it
// once, feed it packed batches with RunBatch, read totals with Result and
// the per-site breakdown with SiteCosts. A Kernel is not safe for concurrent
// use; Reset rewinds it for another replay.
type Kernel struct {
	arch  predict.ArchID
	class class
	obs   *obs.Recorder
	// runNsCounter and eventsCounter are the architecture class's
	// kernel.run_ns.<class> and kernel.events.<class> names, built once at
	// compile time (telemetry on only) so RunBatch never concatenates.
	runNsCounter, eventsCounter string

	// Program tables: the per-program half of the compile, shared across
	// every architecture kernel simulating the same program. lay owns the
	// tables; sites is its descriptor slice, cached for the inner loops.
	lay   *trace.Layout
	sites []Site // descriptor rows in (proc, block, instr) order

	// Compact per-site hot tables, derived from sites at compile time so
	// the batch inner loops never touch the 40-byte descriptor rows: a
	// one-byte kind for op validation, the PC's instruction slot (the PHT
	// index source), the Call return address, and — for the static
	// direction classes only — the site's fixed prediction bit
	// (FALLTHROUGH: always 0; BT/FNT: target <= PC; LIKELY: the profile's
	// majority direction).
	kindOf []uint8
	slotOf []uint64
	fallOf []uint64
	predOf []uint8
	// takenOf is the per-site taken target, built for classBTB only (the
	// install path writes it into evicted lines).
	takenOf []uint64

	// Per-site cost accumulators: one struct per site so an event's three
	// counter bumps share a cache line.
	costs []SiteCost

	// Direction predictor state (PHT classes).
	counters  []predict.Counter2
	mask      uint64
	ghr       uint64
	histories []uint16
	histMask  uint16
	idxMask   uint64

	// BTB state (classBTB), in structure-of-arrays form so a set's way
	// scan reads one cache line of tags instead of striding over full
	// lines. Semantics replicate predict.BTBEntry exactly, including the
	// global-tick LRU. A tag stores pc+1 so zero means invalid; btbSetMask
	// is btbSets-1 (predict.NewBTB enforces a power-of-two set count, so
	// set selection is a mask, not a modulo).
	btbSets    int
	btbSetMask uint64
	btbWays    int
	btbTags    []uint64
	btbTargets []uint64
	btbLRU     []uint64
	btbCtr     []predict.Counter2
	btbTick    uint64

	// Tagged-predictor state (classTAGE / classPerceptron): the predictor
	// core shared with the reference simulator, driven through its Step so
	// both executors evolve state through one training body.
	tage *predict.TAGE
	perc *predict.HashedPerceptron

	// Return stack (all classes), replicating predict.ReturnStack.
	ras      [predict.ReturnStackDepth]uint64
	rasTop   int
	rasDepth int

	res predict.Result
}

// classFor resolves an architecture's registry descriptor and maps its
// kernel kind to the devirtualized class. The registry is the single
// source of the architecture set: an id the registry doesn't know cannot
// compile, and one it does know carries its own table geometry, so adding
// an architecture never touches this switch unless it needs a genuinely
// new inner-loop shape.
func classFor(arch predict.ArchID) (class, predict.Desc, error) {
	d, ok := predict.Lookup(arch)
	if !ok {
		return 0, predict.Desc{}, fmt.Errorf("kernel: unknown architecture %q (known: %v)",
			arch, predict.KnownArchNames())
	}
	switch d.Kernel.Kind {
	case predict.KernelFallthrough:
		return classFallthrough, d, nil
	case predict.KernelBTFNT:
		return classBTFNT, d, nil
	case predict.KernelLikely:
		return classLikely, d, nil
	case predict.KernelPHTDirect:
		return classPHTDirect, d, nil
	case predict.KernelPHTGshare:
		return classPHTGshare, d, nil
	case predict.KernelPHTLocal:
		return classPHTLocal, d, nil
	case predict.KernelBTB:
		return classBTB, d, nil
	case predict.KernelTAGE:
		return classTAGE, d, nil
	case predict.KernelPerceptron:
		return classPerceptron, d, nil
	default:
		return 0, predict.Desc{}, fmt.Errorf("kernel: architecture %q has unsupported kernel kind %d",
			arch, d.Kernel.Kind)
	}
}

// Compile flattens prog for the named architecture: the per-program layout
// compile (trace.CompileLayout) followed by the per-architecture state
// compile (CompileArch). Callers simulating one program on several
// architectures should compile the layout once and call CompileArch per
// architecture instead — that split is what the streaming pipeline's
// fan-out rides on.
//
// Addresses must have been assigned (ir.Program.AssignAddresses): the dense
// site table is keyed by instruction slot, and duplicate site addresses are
// reported as errors.
func Compile(prog *ir.Program, prof *profile.Profile, arch predict.ArchID, rec *obs.Recorder) (*Kernel, error) {
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		return nil, err
	}
	return CompileArch(lay, prog, prof, arch, rec)
}

// CompileArch builds the per-architecture half of a kernel on top of an
// already-compiled program layout: the devirtualized class, predictor
// state, and per-site accumulators. The LIKELY architecture derives its
// per-site hint bits from prof (required, as in predict.NewSimulator); the
// other architectures ignore prof. rec receives compile-phase telemetry
// (kernel.compiles, kernel.compile_ns, kernel.sites) and is retained for
// run-phase counters; nil disables telemetry at zero cost.
//
// prog must be the program lay was compiled from; several kernels may share
// one layout concurrently (it is read-only).
func CompileArch(lay *trace.Layout, prog *ir.Program, prof *profile.Profile, arch predict.ArchID, rec *obs.Recorder) (*Kernel, error) {
	if lay == nil {
		return nil, fmt.Errorf("kernel: nil layout")
	}
	cls, desc, err := classFor(arch)
	if err != nil {
		return nil, err
	}
	if cls == classLikely && prof == nil {
		return nil, fmt.Errorf("kernel: LIKELY architecture requires a profile")
	}
	start := rec.Now()

	k := &Kernel{
		arch: arch, class: cls, obs: rec,
		lay: lay, sites: lay.Sites(),
	}
	if rec.Enabled() {
		k.runNsCounter = "kernel.run_ns." + desc.Class.String()
		k.eventsCounter = "kernel.events." + desc.Class.String()
	}

	n := len(k.sites)
	k.costs = make([]SiteCost, n)
	k.kindOf = make([]uint8, n)
	k.slotOf = make([]uint64, n)
	k.fallOf = make([]uint64, n)
	for i := range k.sites {
		s := &k.sites[i]
		k.kindOf[i] = uint8(s.Kind)
		k.slotOf[i] = s.PC / ir.InstrBytes
		k.fallOf[i] = s.Fall
	}

	// Architecture state, sized by the registry descriptor's kernel spec —
	// the same geometry source the reference constructors read.
	spec := desc.Kernel
	switch cls {
	case classFallthrough:
		k.predOf = make([]uint8, n)
	case classBTFNT:
		k.predOf = make([]uint8, n)
		for i := range k.sites {
			s := &k.sites[i]
			if s.Kind == ir.CondBr && s.TakenTarget <= s.PC {
				k.predOf[i] = 1
			}
		}
	case classLikely:
		k.predOf = make([]uint8, n)
		k.compileLikely(prog, prof)
	case classPHTDirect, classPHTGshare:
		k.counters = newCounters(spec.PHTEntries)
		k.mask = uint64(spec.PHTEntries - 1)
	case classPHTLocal:
		k.histories = make([]uint16, spec.LocalHistEntries)
		k.counters = newCounters(spec.PHTEntries)
		k.histMask = uint16(spec.PHTEntries - 1)
		k.idxMask = uint64(spec.LocalHistEntries - 1)
	case classBTB:
		entries, ways := spec.BTBEntries, spec.BTBWays
		k.btbSets = entries / ways
		k.btbSetMask = uint64(k.btbSets - 1)
		k.btbWays = ways
		k.btbTags = make([]uint64, entries)
		k.btbTargets = make([]uint64, entries)
		k.btbLRU = make([]uint64, entries)
		k.btbCtr = make([]predict.Counter2, entries)
		k.takenOf = make([]uint64, n)
		for i := range k.sites {
			k.takenOf[i] = k.sites[i].TakenTarget
		}
	case classTAGE:
		k.tage = predict.NewTAGE(spec.TAGE)
	case classPerceptron:
		k.perc = predict.NewHashedPerceptron(spec.Perceptron)
	}

	rec.AddSince("kernel.compile_ns", start)
	rec.Add("kernel.compiles", 1)
	rec.Add("kernel.sites", int64(n))
	return k, nil
}

// compileLikely sets the per-site LIKELY hint bits from the profile, with
// exactly predict.NewLikely's rule: a conditional site present in the
// profile with at least one execution predicts its majority direction;
// every other site predicts not taken.
func (k *Kernel) compileLikely(prog *ir.Program, prof *profile.Profile) {
	for _, p := range prog.Procs {
		pp, ok := prof.Procs[p.Name]
		if !ok {
			continue
		}
		for id, b := range p.Blocks {
			term, ok := b.Terminator()
			if !ok || term.Kind() != ir.CondBr {
				continue
			}
			c := pp.Branches[ir.BlockID(id)]
			if c.Total() == 0 {
				continue
			}
			pc := b.TermAddr()
			if si, ok := k.lay.Lookup(pc); ok && c.Taken > c.Fall {
				k.predOf[si] = 1
			}
		}
	}
}

// newCounters returns n weakly-not-taken 2-bit counters.
func newCounters(n int) []predict.Counter2 {
	c := make([]predict.Counter2, n)
	for i := range c {
		c[i] = predict.Counter2Init
	}
	return c
}

// Arch returns the compiled architecture id.
func (k *Kernel) Arch() predict.ArchID { return k.arch }

// Layout returns the shared per-program layout the kernel was compiled
// against.
func (k *Kernel) Layout() *trace.Layout { return k.lay }

// NumSites returns the number of compiled control-transfer sites.
func (k *Kernel) NumSites() int { return len(k.sites) }

// Sites returns the site descriptor table in compilation order. The slice
// is the kernel's own backing store; treat it as read-only.
func (k *Kernel) Sites() []Site { return k.sites }

// Result returns the accumulated simulation tallies, field-for-field
// comparable with the reference simulator's predict.Result.
func (k *Kernel) Result() predict.Result { return k.res }

// SiteCost returns the accumulated penalty counts of site i.
func (k *Kernel) SiteCost(i int) SiteCost { return k.costs[i] }

// SiteCosts returns the per-site penalty counts keyed by site PC, for every
// site that produced at least one event — the same key set a reference
// per-PC recorder observes on the same trace.
func (k *Kernel) SiteCosts() map[uint64]SiteCost {
	out := make(map[uint64]SiteCost)
	for i := range k.sites {
		if k.costs[i].Events == 0 {
			continue
		}
		out[k.sites[i].PC] = k.costs[i]
	}
	return out
}

// SiteCycles returns each active site's branch execution penalty in cycles
// under the paper's default penalties, keyed by site PC. Feed it to
// metrics.SiteQuantiles for per-site cost quantiles.
func (k *Kernel) SiteCycles() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for i := range k.sites {
		if k.costs[i].Events == 0 {
			continue
		}
		out[k.sites[i].PC] = k.costs[i].Cycles(predict.DefaultMisfetchPenalty, predict.DefaultMispredictPenalty)
	}
	return out
}

// Reset rewinds the kernel's dynamic state — predictor tables, return
// stack, accumulators — keeping the compiled program tables (for LIKELY,
// the static hint bits survive, as in the reference simulator).
func (k *Kernel) Reset() {
	k.res = predict.Result{}
	for i := range k.costs {
		k.costs[i] = SiteCost{}
	}
	for i := range k.counters {
		k.counters[i] = predict.Counter2Init
	}
	for i := range k.histories {
		k.histories[i] = 0
	}
	k.ghr = 0
	for i := range k.btbTags {
		k.btbTags[i] = 0
		k.btbTargets[i] = 0
		k.btbLRU[i] = 0
		k.btbCtr[i] = 0
	}
	k.btbTick = 0
	if k.tage != nil {
		k.tage.Reset()
	}
	if k.perc != nil {
		k.perc.Reset()
	}
	k.rasTop, k.rasDepth = 0, 0
}
