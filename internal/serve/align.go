package serve

import (
	"context"
	"slices"
	"sort"
	"strings"

	"balign/internal/asm"
	"balign/internal/cfgio"
	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/profile"
)

// AlignRequest is the /v1/align body: an assembly program, its edge profile
// (batrace text format), and the alignment options to evaluate. Parsing
// fills every defaultable field, so the canonicalized request — and with it
// the cache key — is identical whether defaults were spelled out or
// omitted.
type AlignRequest struct {
	// Name labels the program in the response ("" = the assembly's own
	// program name).
	Name string `json:"name,omitempty"`
	// Asm is the program in the assembler's text format.
	Asm string `json:"asm"`
	// Profile is the edge profile in batrace's text format.
	Profile string `json:"profile"`
	// CFG is a combined program+profile document (JSON or DOT, see
	// internal/cfgio; the encoding is auto-detected). Mutually exclusive
	// with Asm/Profile.
	CFG string `json:"cfg,omitempty"`
	// Arch selects the architecture cost model pricing every plan
	// (default btfnt).
	Arch string `json:"arch"`
	// Algos lists the alignment algorithms to plan: orig, greedy, cost,
	// tryn, exttsp (default greedy, cost, tryn, exttsp).
	Algos []string `json:"algos"`
	// Order is the chain layout order: hottest or btfnt (default hottest).
	Order string `json:"order"`
	// Window is the TryN window size (0 = the paper's 15).
	Window int `json:"window,omitempty"`
	// EmitAsm includes each plan's rewritten assembly in the response.
	EmitAsm bool `json:"emit_asm,omitempty"`
}

// AlignResponse is the /v1/align result: the original layout's cost under
// the chosen model and one plan per requested algorithm.
type AlignResponse struct {
	Name string `json:"name"`
	Arch string `json:"arch"`
	// Model is the cost model's name (several architectures share one).
	Model string `json:"model"`
	// Cost is the original layout's expected branch cycles.
	Cost float64 `json:"cost"`
	// Plans is in the request's algorithm order.
	Plans []AlignPlan `json:"plans"`
}

// AlignPlan is one algorithm's outcome: the aligned layout's cost, the
// rewriter's work, and the per-procedure / per-site cost deltas that let a
// caller see where the cycles went.
type AlignPlan struct {
	Algo string `json:"algo"`
	// Cost is the aligned layout's expected branch cycles; Delta is
	// Cost minus the original layout's (negative = improvement).
	Cost  float64 `json:"cost"`
	Delta float64 `json:"delta"`
	Stats struct {
		JumpsInserted    int   `json:"jumps_inserted"`
		JumpsRemoved     int   `json:"jumps_removed"`
		BranchesInverted int   `json:"branches_inverted"`
		DynInstrDelta    int64 `json:"dyn_instr_delta"`
	} `json:"stats"`
	// Procs covers every profiled procedure, in program order.
	Procs []ProcDelta `json:"procs"`
	// Asm is the rewritten program (only when emit_asm was set).
	Asm string `json:"asm,omitempty"`
}

// ProcDelta is one procedure's cost movement under a plan.
type ProcDelta struct {
	Proc  string  `json:"proc"`
	Orig  float64 `json:"cost_orig"`
	Cost  float64 `json:"cost"`
	Delta float64 `json:"delta"`
	// Sites itemizes the procedure's branch sites (matched across the
	// rewrite by block provenance). Inserted jump blocks appear with
	// block -1 and cost_orig 0; original branches the rewriter removed
	// appear with cost 0.
	Sites []SiteDelta `json:"sites"`
}

// SiteDelta is one branch site's cost movement: the site is identified by
// its block ID and branch address in the ORIGINAL layout (block -1 and the
// aligned-layout address for branches the rewriter synthesized).
type SiteDelta struct {
	Block int     `json:"block"`
	PC    uint64  `json:"pc"`
	Kind  string  `json:"kind"`
	Orig  float64 `json:"cost_orig"`
	Cost  float64 `json:"cost"`
	Delta float64 `json:"delta"`
}

// parseAlignRequest decodes and canonicalizes an align body.
func parseAlignRequest(body []byte) (any, *apiError) {
	req := &AlignRequest{}
	if aerr := decodeStrict(body, req); aerr != nil {
		return nil, aerr
	}
	if req.CFG != "" {
		if req.Asm != "" || req.Profile != "" {
			return nil, badRequest("bad_request", "cfg replaces both asm and profile")
		}
	} else {
		if req.Asm == "" {
			return nil, badRequest("bad_request", "asm is required")
		}
		if req.Profile == "" {
			return nil, badRequest("bad_request", "profile is required")
		}
	}
	if req.Arch == "" {
		req.Arch = string(predict.ArchBTFNT)
	}
	if _, err := cost.ForArch(predict.ArchID(req.Arch)); err != nil {
		return nil, badRequest("bad_request", "%v", err)
	}
	if len(req.Algos) == 0 {
		req.Algos = []string{"greedy", "cost", "tryn", "exttsp"}
	}
	for _, a := range req.Algos {
		if !slices.Contains(core.Algorithms(), core.Algorithm(a)) {
			return nil, badRequest("bad_request", "unknown algorithm %q (known: cost, exttsp, greedy, orig, tryn)", a)
		}
	}
	switch req.Order {
	case "":
		req.Order = "hottest"
	case "hottest", "btfnt":
	default:
		return nil, badRequest("bad_request", "unknown chain order %q (known: hottest, btfnt)", req.Order)
	}
	if req.Window < 0 || req.Window > 24 {
		return nil, badRequest("bad_request", "window %d out of range [0,24]", req.Window)
	}
	return req, nil
}

// computeAlign assembles, aligns under each requested algorithm, and prices
// every layout — whole program, per procedure, per branch site — under the
// requested architecture's cost model.
func (s *Server) computeAlign(ctx context.Context, reqAny any) (any, *apiError) {
	req := reqAny.(*AlignRequest)
	var prog *ir.Program
	var pf *profile.Profile
	if req.CFG != "" {
		var err error
		prog, pf, err = cfgio.Import([]byte(req.CFG))
		if err != nil {
			return nil, badRequest("bad_cfg", "%v", err)
		}
	} else {
		var err error
		prog, err = asm.Assemble(req.Asm)
		if err != nil {
			return nil, badRequest("bad_asm", "%v", err)
		}
		pf, err = profile.Read(strings.NewReader(req.Profile))
		if err != nil {
			return nil, badRequest("bad_profile", "%v", err)
		}
	}
	model, err := cost.ForArch(predict.ArchID(req.Arch))
	if err != nil {
		return nil, badRequest("bad_request", "%v", err)
	}

	name := req.Name
	if name == "" {
		name = prog.Name
	}
	resp := &AlignResponse{
		Name:  name,
		Arch:  req.Arch,
		Model: model.Name(),
		Cost:  cost.ProgramCost(prog, pf, model),
	}

	order := core.OrderHottest
	if req.Order == "btfnt" {
		order = core.OrderBTFNT
	}
	for _, algoName := range req.Algos {
		if err := ctx.Err(); err != nil {
			return nil, ctxError(err)
		}
		algo := core.Algorithm(algoName)
		opts := core.Options{
			Algorithm: algo,
			Order:     order,
			Window:    req.Window,
			Obs:       s.obs,
		}
		if algo == core.AlgoCost || algo == core.AlgoTryN {
			opts.Model = model
		}
		res, err := core.AlignProgram(prog, pf, opts)
		if err != nil {
			return nil, &apiError{status: 422, code: "align_failed", msg: err.Error()}
		}
		plan := AlignPlan{
			Algo: algoName,
			Cost: cost.ProgramCost(res.Prog, res.Prof, model),
		}
		plan.Delta = plan.Cost - resp.Cost
		plan.Stats.JumpsInserted = res.Stats.JumpsInserted
		plan.Stats.JumpsRemoved = res.Stats.JumpsRemoved
		plan.Stats.BranchesInverted = res.Stats.BranchesInverted
		plan.Stats.DynInstrDelta = res.Stats.DynInstrDelta
		plan.Procs = procDeltas(prog, pf, res.Prog, res.Prof, model)
		if req.EmitAsm {
			plan.Asm = res.Prog.Format()
		}
		resp.Plans = append(resp.Plans, plan)
	}
	if resp.Plans == nil {
		resp.Plans = []AlignPlan{}
	}
	return resp, nil
}

// procDeltas diffs every profiled procedure's branch-site costs between the
// original and aligned layouts. Sites are matched by block provenance
// (ir.Block.Orig); a site only in the original layout was removed by the
// rewriter, a site only in the aligned layout (provenance NoBlock) was
// inserted by it. Per-procedure totals therefore reconcile exactly with
// cost.ProcCost on both sides.
func procDeltas(orig *ir.Program, origPf *profile.Profile,
	aligned *ir.Program, alignedPf *profile.Profile, model cost.Model) []ProcDelta {

	deltas := make([]ProcDelta, 0, len(orig.Procs))
	for _, op := range orig.Procs {
		opp, ok := origPf.Procs[op.Name]
		if !ok {
			continue
		}
		ai := aligned.ProcByName(op.Name)
		if ai < 0 {
			continue
		}
		ap := aligned.Procs[ai]
		app := alignedPf.Procs[op.Name]
		if app == nil {
			continue
		}

		pd := ProcDelta{Proc: op.Name, Sites: []SiteDelta{}}
		origSites := cost.ProcSiteCosts(op, opp, model)
		alignedSites := cost.ProcSiteCosts(ap, app, model)
		// Aligned cost by provenance; synthesized blocks keyed separately.
		byOrig := make(map[ir.BlockID]float64, len(alignedSites))
		kindByOrig := make(map[ir.BlockID]ir.Kind, len(alignedSites))
		var inserted []cost.SiteCost
		for _, sc := range alignedSites {
			pd.Cost += sc.Cost
			if sc.Orig == ir.NoBlock {
				inserted = append(inserted, sc)
				continue
			}
			byOrig[sc.Orig] += sc.Cost
			kindByOrig[sc.Orig] = sc.Kind
		}
		matched := make(map[ir.BlockID]bool, len(origSites))
		for _, sc := range origSites {
			pd.Orig += sc.Cost
			matched[sc.Block] = true
			after := byOrig[sc.Orig] // orig program: Orig == Block
			kind := sc.Kind
			if k, ok := kindByOrig[sc.Orig]; ok {
				kind = k
			}
			pd.Sites = append(pd.Sites, SiteDelta{
				Block: int(sc.Block), PC: sc.PC, Kind: kind.String(),
				Orig: sc.Cost, Cost: after, Delta: after - sc.Cost,
			})
		}
		// Aligned sites whose provenance block had no costed branch in the
		// original layout (a fall-through block that gained a jump, say)
		// still need an entry, or the site sums would not reconcile.
		for _, sc := range alignedSites {
			if sc.Orig == ir.NoBlock || matched[sc.Orig] {
				continue
			}
			matched[sc.Orig] = true
			pd.Sites = append(pd.Sites, SiteDelta{
				Block: int(sc.Orig), PC: 0, Kind: sc.Kind.String(),
				Orig: 0, Cost: byOrig[sc.Orig], Delta: byOrig[sc.Orig],
			})
		}
		for _, sc := range inserted {
			pd.Sites = append(pd.Sites, SiteDelta{
				Block: -1, PC: sc.PC, Kind: sc.Kind.String(),
				Orig: 0, Cost: sc.Cost, Delta: sc.Cost,
			})
		}
		sort.SliceStable(pd.Sites, func(i, j int) bool {
			bi, bj := pd.Sites[i].Block, pd.Sites[j].Block
			if (bi < 0) != (bj < 0) {
				return bj < 0 // real blocks first, synthesized last
			}
			if bi != bj {
				return bi < bj
			}
			return pd.Sites[i].PC < pd.Sites[j].PC
		})
		pd.Delta = pd.Cost - pd.Orig
		deltas = append(deltas, pd)
	}
	return deltas
}
