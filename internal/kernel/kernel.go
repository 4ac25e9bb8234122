// Package kernel is the flattened branch-event simulation kernel: the
// compiled fast path of the evaluation harness. The reference path in
// internal/predict dispatches every break event through a trace.Sink
// interface into a simulator that calls an interface-typed direction
// predictor and, for the LIKELY architecture, a map-backed hint table. That
// is flexible but costs two or three dynamic dispatches plus a 48-byte
// event copy per event, millions of times per evaluation cell.
//
// CompileArchs precompiles one program and a list of architectures into
// struct-of-arrays form:
//
//   - compact per-site tables (kind, PC slot, fall-through and taken
//     addresses) read from the program's shared trace.Layout, built once
//     per kernel whatever the number of architectures;
//   - per-site accumulators split the same way: the event counts and
//     return-stack misses every architecture shares, and per architecture
//     only the misfetches and mispredicts it charges differently;
//   - one fixed-size return stack, since every architecture predicts
//     returns alike;
//   - per architecture, devirtualized predictor state as flat slices:
//     PHT/gshare/local 2-bit counter arrays, BTB lines with their LRU
//     ticks, or a tagged predictor core.
//
// RunBatch then consumes packed trace batches (4 bytes per event) chunk by
// chunk: one shared pass validates the ops and does the common work, every
// direction architecture steps over the chunk's conditionals only, and
// each BTB walks the chunk's ops. There is no interface dispatch in any
// inner loop. The kernel is held to exact parity with the reference
// simulators — identical predict.Result tallies and identical per-site
// penalty counts on every event stream — by the differential oracles in
// this package and in internal/experiments.
package kernel

import (
	"cmp"
	"fmt"
	"slices"

	"balign/internal/ir"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
)

// class is the devirtualized architecture discriminant: the one switch the
// inner loops key on instead of interface dispatch.
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
// pipeline shares one Layout across all consumers of a variant), so Site
// is the layout's descriptor row.
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

// penalty is one site's charges that depend on the architecture.
type penalty struct {
	misfetches, mispredicts uint64
}

// Kernel is one compiled simulation of a program on one or more
// architectures. Compile it once, feed it packed batches with RunBatch,
// read totals with Results and the per-site breakdown with SiteCostsOf.
// A Kernel is not safe for concurrent use; Reset rewinds it for another
// replay.
type Kernel struct {
	obs *obs.Recorder

	// Program tables: the per-program half of the compile, shared across
	// every kernel simulating the same program. lay owns the tables; sites
	// is its descriptor slice.
	lay   *trace.Layout
	sites []Site // descriptor rows in (proc, block, instr) order

	// Compact per-site hot tables, derived from sites at compile time so
	// the batch loops never touch the 40-byte descriptor rows: a one-byte
	// kind for op validation, the PC's instruction slot (the PHT index
	// source), the Call return address, and the taken target (built only
	// when a BTB is compiled: the install path writes it into lines).
	kindOf  []uint8
	slotOf  []uint64
	fallOf  []uint64
	takenOf []uint64

	// What every architecture counts alike. base holds each site's events
	// and its return-stack mispredicts; shared holds the event, kind,
	// conditional and return tallies, with the return misses in
	// Mispredicts.
	base   []SiteCost
	shared predict.Result

	// Return stack, replicating predict.ReturnStack. Every architecture
	// predicts returns with the same stack, so there is one.
	ras      [predict.ReturnStackDepth]uint64
	rasTop   int
	rasDepth int

	archs []arch
	// groups partitions archs by report class, in class order: each group
	// is timed as one pass and owns a kernel.run_ns.<class> bucket.
	groups []group
}

// arch is one compiled architecture's state: its predictor and the
// tallies it alone charges.
type arch struct {
	class class

	// pen is the per-site charges this architecture makes differently from
	// the others: a direction architecture's conditionals, a BTB's
	// conditionals, branches, calls and indirect jumps. misfetches,
	// mispredicts and condCorrect are their totals.
	pen                                  []penalty
	misfetches, mispredicts, condCorrect uint64

	// predOf is the static classes' fixed per-site prediction bit
	// (BT/FNT: target <= PC; LIKELY: the profile's majority direction;
	// FALLTHROUGH: none, it always predicts 0).
	predOf []uint8

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
	// is sets-1 (predict.NewBTB enforces a power-of-two set count, so set
	// selection is a mask, not a modulo).
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
}

// group is the architectures of one report class, the names of its
// telemetry buckets (built at compile time, telemetry on only, so
// RunBatch never concatenates) and the current batch's time in them.
type group struct {
	class                       predict.Class
	archs                       []int
	runNsCounter, eventsCounter string
	ns                          int64
}

// classFor resolves an architecture's registry descriptor and maps its
// kernel kind to the devirtualized class. The registry is the single
// source of the architecture set: an id the registry doesn't know cannot
// compile, and one it does know carries its own table geometry, so adding
// an architecture never touches this switch unless it needs a genuinely
// new inner-loop shape.
func classFor(id predict.ArchID) (class, predict.Desc, error) {
	d, ok := predict.Lookup(id)
	if !ok {
		return 0, predict.Desc{}, fmt.Errorf("kernel: unknown architecture %q (known: %v)",
			id, predict.KnownArchNames())
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
			id, d.Kernel.Kind)
	}
}

// Compile flattens prog for the named architecture: the per-program layout
// compile (trace.CompileLayout) followed by CompileArch. Callers simulating
// one program on several architectures should compile the layout once and
// call CompileArchs instead.
//
// Addresses must have been assigned (ir.Program.AssignAddresses): the dense
// site table is keyed by instruction slot, and duplicate site addresses are
// reported as errors.
func Compile(prog *ir.Program, prof *profile.Profile, id predict.ArchID, rec *obs.Recorder) (*Kernel, error) {
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		return nil, err
	}
	return CompileArch(lay, prog, prof, id, rec)
}

// CompileArch is CompileArchs for one architecture.
func CompileArch(lay *trace.Layout, prog *ir.Program, prof *profile.Profile, id predict.ArchID, rec *obs.Recorder) (*Kernel, error) {
	return CompileArchs(lay, prog, prof, []predict.ArchID{id}, rec)
}

// CompileArchs builds one kernel simulating every architecture in ids on
// top of an already-compiled program layout: the shared per-site tables
// and return stack once, then each architecture's class, predictor state
// and per-site accumulators. Results and SiteCostsOf are index-aligned
// with ids. The LIKELY architecture derives its per-site hint bits from
// prof (required, as in predict.NewSimulator); the other architectures
// ignore prof. rec receives compile-phase telemetry (kernel.compiles and
// kernel.sites, both per architecture, and kernel.compile_ns) and is
// retained for run-phase counters; nil disables telemetry at zero cost.
//
// prog must be the program lay was compiled from; several kernels may share
// one layout concurrently (it is read-only).
func CompileArchs(lay *trace.Layout, prog *ir.Program, prof *profile.Profile, ids []predict.ArchID, rec *obs.Recorder) (*Kernel, error) {
	if lay == nil {
		return nil, fmt.Errorf("kernel: nil layout")
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("kernel: no architectures to compile")
	}
	start := rec.Now()
	sites := lay.Sites()
	n := len(sites)
	k := &Kernel{
		obs: rec, lay: lay, sites: sites,
		kindOf: make([]uint8, n),
		slotOf: make([]uint64, n),
		fallOf: make([]uint64, n),
		base:   make([]SiteCost, n),
		archs:  make([]arch, len(ids)),
	}
	for i := range sites {
		s := &sites[i]
		k.kindOf[i] = uint8(s.Kind)
		k.slotOf[i] = s.PC / ir.InstrBytes
		k.fallOf[i] = s.Fall
	}

	for i, id := range ids {
		cls, desc, err := classFor(id)
		if err != nil {
			return nil, err
		}
		if err := k.compileArch(&k.archs[i], cls, desc.Kernel, prog, prof); err != nil {
			return nil, err
		}
		j := slices.IndexFunc(k.groups, func(g group) bool { return g.class == desc.Class })
		if j < 0 {
			j = len(k.groups)
			k.groups = append(k.groups, group{class: desc.Class})
			if rec.Enabled() {
				k.groups[j].runNsCounter = "kernel.run_ns." + desc.Class.String()
				k.groups[j].eventsCounter = "kernel.events." + desc.Class.String()
			}
		}
		k.groups[j].archs = append(k.groups[j].archs, i)
	}
	slices.SortFunc(k.groups, func(a, b group) int { return cmp.Compare(a.class, b.class) })

	rec.AddSince("kernel.compile_ns", start)
	rec.Add("kernel.compiles", int64(len(ids)))
	rec.Add("kernel.sites", int64(n*len(ids)))
	return k, nil
}

// compileArch sizes one architecture's state from its registry kernel
// spec — the same geometry source the reference constructors read.
func (k *Kernel) compileArch(a *arch, cls class, spec predict.KernelSpec,
	prog *ir.Program, prof *profile.Profile) error {
	n := len(k.sites)
	*a = arch{class: cls, pen: make([]penalty, n)}
	switch cls {
	case classBTFNT:
		a.predOf = make([]uint8, n)
		for i := range k.sites {
			s := &k.sites[i]
			if s.Kind == ir.CondBr && s.TakenTarget <= s.PC {
				a.predOf[i] = 1
			}
		}
	case classLikely:
		if prof == nil {
			return fmt.Errorf("kernel: LIKELY architecture requires a profile")
		}
		a.predOf = make([]uint8, n)
		k.compileLikely(a.predOf, prog, prof)
	case classPHTDirect, classPHTGshare:
		a.counters = newCounters(spec.PHTEntries)
		a.mask = uint64(spec.PHTEntries - 1)
	case classPHTLocal:
		a.histories = make([]uint16, spec.LocalHistEntries)
		a.counters = newCounters(spec.PHTEntries)
		a.histMask = uint16(spec.PHTEntries - 1)
		a.idxMask = uint64(spec.LocalHistEntries - 1)
	case classBTB:
		entries, ways := spec.BTBEntries, spec.BTBWays
		a.btbSetMask = uint64(entries/ways - 1)
		a.btbWays = ways
		a.btbTags = make([]uint64, entries)
		a.btbTargets = make([]uint64, entries)
		a.btbLRU = make([]uint64, entries)
		a.btbCtr = make([]predict.Counter2, entries)
		if k.takenOf == nil {
			k.takenOf = make([]uint64, n)
			for i := range k.sites {
				k.takenOf[i] = k.sites[i].TakenTarget
			}
		}
	case classTAGE:
		a.tage = predict.NewTAGE(spec.TAGE)
	case classPerceptron:
		a.perc = predict.NewHashedPerceptron(spec.Perceptron)
	}
	return nil
}

// compileLikely sets the per-site LIKELY hint bits from the profile, with
// exactly predict.NewLikely's rule: a conditional site present in the
// profile with at least one execution predicts its majority direction;
// every other site predicts not taken.
func (k *Kernel) compileLikely(predOf []uint8, prog *ir.Program, prof *profile.Profile) {
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
				predOf[si] = 1
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

// Layout returns the shared per-program layout the kernel was compiled
// against.
func (k *Kernel) Layout() *trace.Layout { return k.lay }

// NumSites returns the number of compiled control-transfer sites.
func (k *Kernel) NumSites() int { return len(k.sites) }

// Sites returns the site descriptor table in compilation order. The slice
// is the layout's own backing store; treat it as read-only.
func (k *Kernel) Sites() []Site { return k.sites }

// Result returns the first architecture's accumulated tallies — the only
// one's, for a kernel from Compile or CompileArch — field-for-field
// comparable with the reference simulator's predict.Result.
func (k *Kernel) Result() predict.Result { return k.result(&k.archs[0]) }

// Results returns every architecture's accumulated tallies, index-aligned
// with the compiled ids.
func (k *Kernel) Results() []predict.Result {
	out := make([]predict.Result, len(k.archs))
	for i := range k.archs {
		out[i] = k.result(&k.archs[i])
	}
	return out
}

// result assembles a's tallies from the shared ones and its own. A
// direction architecture charges every branch and call a misfetch and
// every indirect jump a mispredict, so those charges follow from the
// shared kind tallies.
func (k *Kernel) result(a *arch) predict.Result {
	r := k.shared
	r.Misfetches += a.misfetches
	r.Mispredicts += a.mispredicts
	r.CondCorrect = a.condCorrect
	if a.class != classBTB {
		r.Misfetches += r.ByKind[ir.Br&7] + r.ByKind[ir.Call&7]
		r.Mispredicts += r.ByKind[ir.IJump&7]
	}
	return r
}

// siteCost assembles site si's costs under a, with result's rule.
func (k *Kernel) siteCost(a *arch, si int) SiteCost {
	c := k.base[si]
	c.Misfetches += a.pen[si].misfetches
	c.Mispredicts += a.pen[si].mispredicts
	if a.class != classBTB {
		switch k.sites[si].Kind {
		case ir.Br, ir.Call:
			c.Misfetches += c.Events
		case ir.IJump:
			c.Mispredicts += c.Events
		}
	}
	return c
}

// SiteCosts is SiteCostsOf(0).
func (k *Kernel) SiteCosts() map[uint64]SiteCost { return k.SiteCostsOf(0) }

// SiteCostsOf returns architecture i's per-site penalty counts keyed by
// site PC, for every site that produced at least one event — the same key
// set a reference per-PC recorder observes on the same trace.
func (k *Kernel) SiteCostsOf(i int) map[uint64]SiteCost {
	a := &k.archs[i]
	out := make(map[uint64]SiteCost)
	for si := range k.sites {
		if k.base[si].Events == 0 {
			continue
		}
		out[k.sites[si].PC] = k.siteCost(a, si)
	}
	return out
}

// SiteCycles returns each active site's branch execution penalty in cycles
// under the first architecture and the paper's default penalties, keyed by
// site PC. Feed it to metrics.SiteQuantiles for per-site cost quantiles.
func (k *Kernel) SiteCycles() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for pc, c := range k.SiteCosts() {
		out[pc] = c.Cycles(predict.DefaultMisfetchPenalty, predict.DefaultMispredictPenalty)
	}
	return out
}

// Reset rewinds the kernel's dynamic state — predictor tables, return
// stack, accumulators — keeping the compiled program tables (for LIKELY,
// the static hint bits survive, as in the reference simulator).
func (k *Kernel) Reset() {
	k.shared = predict.Result{}
	clear(k.base)
	k.rasTop, k.rasDepth = 0, 0
	for i := range k.archs {
		a := &k.archs[i]
		clear(a.pen)
		a.misfetches, a.mispredicts, a.condCorrect = 0, 0, 0
		for j := range a.counters {
			a.counters[j] = predict.Counter2Init
		}
		clear(a.histories)
		a.ghr = 0
		clear(a.btbTags)
		clear(a.btbTargets)
		clear(a.btbLRU)
		clear(a.btbCtr)
		a.btbTick = 0
		if a.tage != nil {
			a.tage.Reset()
		}
		if a.perc != nil {
			a.perc.Reset()
		}
	}
}
