package core

import (
	"fmt"

	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/obs"
	"balign/internal/profile"
)

// Algorithm selects a branch alignment algorithm.
type Algorithm string

const (
	// AlgoOriginal performs no reordering (the paper's "Orig" columns).
	AlgoOriginal Algorithm = "orig"
	// AlgoGreedy is the Pettis & Hansen bottom-up chaining algorithm: link
	// the hottest edges first, no architecture cost model.
	AlgoGreedy Algorithm = "greedy"
	// AlgoCost is the paper's Cost heuristic: greedy edge processing, but
	// every link is justified against the architecture cost model, the best
	// predecessor of each block is preferred, and loops may be restructured
	// with inserted jumps when that is cheaper.
	AlgoCost Algorithm = "cost"
	// AlgoTryN is the paper's Try15 heuristic generalized to a configurable
	// window: the N hottest undecided edges are taken at a time and the
	// cheapest combination of their nodes' alignment choices under the
	// cost model is committed.
	AlgoTryN Algorithm = "tryn"
	// AlgoExtTSP is Newell & Pupyrev's distance-weighted layout objective
	// (short-forward / short-backward / long-jump scoring) optimized by
	// chain merging with bounded chain splitting. It needs no architecture
	// cost model: the objective itself encodes fetch locality.
	AlgoExtTSP Algorithm = "exttsp"
)

// Algorithms lists every alignment algorithm, the names a request or flag
// may give.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoOriginal, AlgoGreedy, AlgoCost, AlgoTryN, AlgoExtTSP}
}

// DefaultWindow is the paper's Try15 window size.
const DefaultWindow = 15

// DefaultMaxCombos bounds the search space of one TryN window; conflict
// clusters whose combination count would exceed it are split, which
// trades optimality within the window for bounded time exactly as the
// paper's Try10 variant does.
const DefaultMaxCombos = 1 << 18

// DefaultMinWeight is the TryN edge filter: the paper only examines edges
// executed more than once.
const DefaultMinWeight = 2

// Options configures alignment.
type Options struct {
	// Algorithm is the alignment algorithm (default AlgoGreedy).
	Algorithm Algorithm
	// Model is the architecture cost model consulted by AlgoCost and
	// AlgoTryN and by the rewriter's jump-orientation decisions. Nil is
	// allowed for AlgoOriginal/AlgoGreedy (which do not use one) and
	// selects original-orientation jumps.
	Model cost.Model
	// Order is the chain layout order (default OrderHottest).
	Order ChainOrder
	// Window is the TryN group size (default DefaultWindow).
	Window int
	// Obs receives per-procedure alignment telemetry: plan (chain/cost/
	// tryN) and rewrite timings plus procedure counters, under
	// core.plan.<algorithm>.* / core.rewrite.* names. Nil disables
	// telemetry at zero cost (not even clock reads); telemetry never
	// influences layout decisions.
	Obs *obs.Recorder
}

func (o *Options) window() int {
	if o.Window <= 0 {
		return DefaultWindow
	}
	return o.Window
}

// Result is the outcome of aligning a program.
type Result struct {
	// Prog is the aligned program with addresses assigned.
	Prog *ir.Program
	// Prof is the input profile transferred onto the aligned program's
	// block IDs (same traversal counts, new keys, jump-block detours
	// included); its Instrs field is adjusted by the expected dynamic
	// instruction delta from inserted/removed jumps.
	Prof *profile.Profile
	// Stats aggregates the rewriter's work across all procedures.
	Stats RewriteStats
}

// AlignProgram aligns every procedure of prog using the profile pf and
// returns the rewritten program, the transferred profile and rewrite
// statistics. Procedures without profile data keep their original layout.
// The input program and profile are not modified.
func AlignProgram(prog *ir.Program, pf *profile.Profile, opts Options) (*Result, error) {
	// Feed entry blocks their invocation counts (derived from caller block
	// weights) so absolute-weight consumers — ExtTSP distances, chain
	// weights, downstream procedure ordering on the aligned result — see
	// full-strength entry executions. The input profile is not modified;
	// the enriched counts flow into the transferred output profile.
	pf = withEntryCounts(prog, pf)
	out := &ir.Program{
		Name:      prog.Name,
		EntryProc: prog.EntryProc,
		MemWords:  prog.MemWords,
	}
	npf := profile.New(pf.Program)
	res := &Result{Prog: out, Prof: npf}

	for _, p := range prog.Procs {
		pp, ok := pf.Procs[p.Name]
		if !ok || opts.Algorithm == AlgoOriginal || opts.Algorithm == "" {
			out.Procs = append(out.Procs, p.Clone())
			if ok {
				npf.Procs[p.Name] = clonePP(pp)
			}
			continue
		}
		planStart := opts.Obs.Now()
		layout, forceJump, err := planLayout(p, pp, opts)
		if err != nil {
			return nil, fmt.Errorf("core: aligning %q: %w", p.Name, err)
		}
		opts.Obs.AddSince("core.plan."+string(opts.Algorithm)+".ns", planStart)
		opts.Obs.Add("core.plan."+string(opts.Algorithm)+".procs", 1)
		rewriteStart := opts.Obs.Now()
		np, npp, stats, err := rewriteProc(p, pp, layout, opts.Model, forceJump)
		if err != nil {
			return nil, fmt.Errorf("core: rewriting %q: %w", p.Name, err)
		}
		opts.Obs.AddSince("core.rewrite.ns", rewriteStart)
		// Cost guard for the model-guided algorithms: the chaining passes
		// optimize link decisions locally and can, on rare shapes, produce a
		// whole-procedure layout the guiding model prices worse than the
		// incumbent. Realignment must never regress its own objective, so
		// keep the original layout in that case.
		if opts.Model != nil && (opts.Algorithm == AlgoCost || opts.Algorithm == AlgoTryN) {
			assignProcAddrs(np, p.Blocks[0].Addr)
			if cost.ProcCost(np, npp, opts.Model) > cost.ProcCost(p, pp, opts.Model) {
				opts.Obs.Add("core.costguard.kept", 1)
				out.Procs = append(out.Procs, p.Clone())
				npf.Procs[p.Name] = clonePP(pp)
				continue
			}
		}
		out.Procs = append(out.Procs, np)
		npf.Procs[p.Name] = npp
		res.Stats.Add(stats)
	}

	newInstrs := int64(pf.Instrs) + res.Stats.DynInstrDelta
	if newInstrs < 0 {
		newInstrs = 0
	}
	npf.Instrs = uint64(newInstrs)

	out.AssignAddresses(0x1000)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: aligned program invalid: %w", err)
	}
	return res, nil
}

// planLayout runs the selected algorithm over one procedure and returns the
// block layout plus any "align neither edge" decisions.
func planLayout(p *ir.Proc, pp *profile.ProcProfile, opts Options) ([]ir.BlockID, map[ir.BlockID]bool, error) {
	switch opts.Algorithm {
	case AlgoGreedy:
		return greedyLayout(p, pp, opts), nil, nil
	case AlgoCost:
		if opts.Model == nil {
			return nil, nil, fmt.Errorf("algorithm %q requires a cost model", opts.Algorithm)
		}
		layout, force := costLayout(p, pp, opts)
		return layout, force, nil
	case AlgoTryN:
		if opts.Model == nil {
			return nil, nil, fmt.Errorf("algorithm %q requires a cost model", opts.Algorithm)
		}
		layout, force := tryNLayout(p, pp, opts)
		return layout, force, nil
	case AlgoExtTSP:
		return extTSPLayout(p, pp), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", opts.Algorithm)
	}
}

// greedyLayout implements Pettis & Hansen's bottom-up chaining: process
// edges in descending weight order, linking source to destination whenever
// the source is a chain tail and the destination a chain head of different
// chains.
func greedyLayout(p *ir.Proc, pp *profile.ProcProfile, opts Options) []ir.BlockID {
	c := newChains(p)
	edges := alignableEdges(p, pp.Weight, 1)
	for _, e := range edges {
		if c.canLink(e.from, e.to) {
			c.link(e.from, e.to)
		}
	}
	return orderChains(c, pp, opts.Order)
}

// finishLinks greedily links any remaining feasible edges (used by Cost and
// TryN after their model-guided passes so cold blocks still form reasonable
// chains rather than arbitrary singletons). Edges whose source made an
// explicit "neither" decision are skipped.
func finishLinks(c *chains, p *ir.Proc, pp *profile.ProcProfile, skip map[ir.BlockID]bool) {
	edges := alignableEdges(p, pp.Weight, 1)
	for _, e := range edges {
		if skip[e.from] {
			continue
		}
		if c.canLink(e.from, e.to) {
			c.link(e.from, e.to)
		}
	}
}

// assignProcAddrs lays one procedure's blocks out contiguously from base so
// direction-sensitive cost models (BT/FNT) can price a candidate layout
// before whole-program address assignment. Only intra-procedure relative
// positions matter to ProcCost, so any base works.
func assignProcAddrs(p *ir.Proc, base uint64) {
	addr := base
	for _, b := range p.Blocks {
		b.Addr = addr
		addr += uint64(len(b.Instrs)) * ir.InstrBytes
	}
}

func clonePP(pp *profile.ProcProfile) *profile.ProcProfile {
	np := profile.NewProcProfile()
	np.EntryCount = pp.EntryCount
	for e, w := range pp.Edges {
		np.Edges[e] = w
	}
	for b, cnt := range pp.Branches {
		np.Branches[b] = cnt
	}
	return np
}

// withEntryCounts returns a view of pf whose procedure profiles carry entry
// invocation counts, deriving missing ones from caller block weights
// (ProcHotness). Profiles that already record every entry count are
// returned as-is; otherwise the returned profile shares pf's maps and pf is
// not modified.
func withEntryCounts(prog *ir.Program, pf *profile.Profile) *profile.Profile {
	needs := false
	for _, p := range prog.Procs {
		if pp, ok := pf.Procs[p.Name]; ok && pp.EntryCount == 0 {
			needs = true
			break
		}
	}
	if !needs {
		return pf
	}
	hot := ProcHotness(prog, pf)
	out := &profile.Profile{
		Program: pf.Program,
		Instrs:  pf.Instrs,
		Procs:   make(map[string]*profile.ProcProfile, len(pf.Procs)),
	}
	for name, pp := range pf.Procs {
		out.Procs[name] = pp
	}
	for pi, p := range prog.Procs {
		pp, ok := pf.Procs[p.Name]
		if !ok || pp.EntryCount > 0 || hot[pi] == 0 {
			continue
		}
		out.Procs[p.Name] = &profile.ProcProfile{
			Edges:      pp.Edges,
			Branches:   pp.Branches,
			EntryCount: hot[pi],
		}
	}
	return out
}
