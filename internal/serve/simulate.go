package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"

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
	"balign/internal/workload"
)

// Inline trace budgets: VM programs run to completion under a step cap,
// stochastic walks are event-budgeted like the suite's synthetic workloads.
const (
	defaultVMSteps   = 1 << 22
	defaultWalkSteps = 1 << 20
	maxInlineSteps   = 1 << 26
)

// SimulateRequest is the /v1/simulate body. It has two mutually exclusive
// shapes:
//
//   - suite mode: Programs names workloads from the paper's suite; the
//     evaluation grid runs through internal/experiments exactly as
//     `baexp suite` does, and Report is byte-identical to its output.
//
//   - inline mode: Asm (plus optionally Profile) supplies the program; it
//     is aligned per algorithm and stream-simulated across the requested
//     architectures.
//
// The executor kernel is server configuration, not a request field:
// responses are byte-identical across flat and ref servers, and the golden
// tests pin that parity.
type SimulateRequest struct {
	// Suite mode.
	Programs []string `json:"programs,omitempty"`
	// Scale multiplies the suite trace budgets (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`

	// Inline mode.
	Name string `json:"name,omitempty"`
	Asm  string `json:"asm,omitempty"`
	// Profile is the edge profile in batrace's text format. Optional with
	// the vm generator (a training run collects one); required for walk.
	Profile string `json:"profile,omitempty"`
	// Generator picks how inline traces are produced: "vm" executes the
	// program, "walk" samples the profile's behaviour model.
	Generator string `json:"generator"`
	// MaxInstrs bounds one inline generation (0 = a generator-specific
	// default; capped at 1<<26).
	MaxInstrs uint64 `json:"max_instrs,omitempty"`

	// Shared.
	// Seed perturbs suite workloads and inline walks.
	Seed int64 `json:"seed,omitempty"`
	// Archs lists simulated architectures (default: all, paper order).
	Archs []string `json:"archs"`
	// Algos lists alignment columns: orig, greedy, cost, try15, exttsp
	// (default all).
	Algos []string `json:"algos"`
	// Window is the TryN window size (0 = the paper's 15).
	Window int `json:"window,omitempty"`
}

// SummaryJSON is one evaluation cell in the response: metrics.Summary with
// a stable JSON schema.
type SummaryJSON struct {
	Program      string  `json:"program"`
	Arch         string  `json:"arch"`
	Algo         string  `json:"algo"`
	Instrs       uint64  `json:"instrs"`
	BEP          uint64  `json:"bep"`
	Events       uint64  `json:"events"`
	Misfetches   uint64  `json:"misfetches"`
	Mispredicts  uint64  `json:"mispredicts"`
	Cond         uint64  `json:"cond"`
	CondTaken    uint64  `json:"cond_taken"`
	CondCorrect  uint64  `json:"cond_correct"`
	ICFetches    uint64  `json:"ic_fetches,omitempty"`
	ICAccesses   uint64  `json:"ic_accesses,omitempty"`
	ICMisses     uint64  `json:"ic_misses,omitempty"`
	CPI          float64 `json:"cpi"`
	FallPct      float64 `json:"fall_pct"`
	CondAccuracy float64 `json:"cond_accuracy"`
	ICMPKI       float64 `json:"ic_mpki,omitempty"`
}

// SimulateResponse is the /v1/simulate result: the cell grid in canonical
// (program, arch, algo) order plus its stable text encoding — the same
// bytes `baexp suite` prints for the same inputs in suite mode.
type SimulateResponse struct {
	Mode      string        `json:"mode"`
	Summaries []SummaryJSON `json:"summaries"`
	Report    string        `json:"report"`
}

var validSimAlgos = map[string]bool{
	"orig": true, "greedy": true, "cost": true, "try15": true, "exttsp": true,
}

// parseSimulateRequest decodes and canonicalizes a simulate body.
func parseSimulateRequest(body []byte) (any, *apiError) {
	req := &SimulateRequest{}
	if aerr := decodeStrict(body, req); aerr != nil {
		return nil, aerr
	}
	suite := len(req.Programs) > 0
	inline := req.Asm != ""
	switch {
	case suite && inline:
		return nil, badRequest("bad_request", "programs and asm are mutually exclusive")
	case !suite && !inline:
		return nil, badRequest("bad_request", "either programs (suite mode) or asm (inline mode) is required")
	}
	if suite {
		if req.Name != "" || req.Profile != "" || req.Generator != "" || req.MaxInstrs != 0 {
			return nil, badRequest("bad_request", "name, profile, generator and max_instrs are inline-mode fields")
		}
		known := make(map[string]bool)
		for _, n := range workload.AllNames() {
			known[n] = true
		}
		for _, p := range req.Programs {
			if !known[p] {
				return nil, badRequest("bad_request", "unknown suite program %q (known: %s)",
					p, strings.Join(workload.AllNames(), ", "))
			}
		}
		if req.Scale < 0 || req.Scale > 4 {
			return nil, badRequest("bad_request", "scale %g out of range (0,4]", req.Scale)
		}
	} else {
		if req.Scale != 0 {
			return nil, badRequest("bad_request", "scale is a suite-mode field")
		}
		switch req.Generator {
		case "":
			req.Generator = "vm"
		case "vm":
		case "walk":
			if req.Profile == "" {
				return nil, badRequest("bad_request", "the walk generator requires a profile")
			}
		default:
			return nil, badRequest("bad_request", "unknown generator %q (known: vm, walk)", req.Generator)
		}
		if req.MaxInstrs > maxInlineSteps {
			return nil, badRequest("bad_request", "max_instrs %d exceeds the cap %d", req.MaxInstrs, maxInlineSteps)
		}
	}
	if len(req.Archs) == 0 {
		for _, a := range predict.AllArchs() {
			req.Archs = append(req.Archs, string(a))
		}
	}
	seen := make(map[string]bool)
	for _, a := range req.Archs {
		if _, ok := predict.Lookup(predict.ArchID(a)); !ok {
			return nil, badRequest("bad_request", "unknown architecture %q (known: %s)",
				a, strings.Join(predict.KnownArchNames(), ", "))
		}
		if seen[a] {
			return nil, badRequest("bad_request", "duplicate architecture %q", a)
		}
		seen[a] = true
	}
	if len(req.Algos) == 0 {
		req.Algos = []string{"orig", "greedy", "cost", "try15", "exttsp"}
	}
	seen = make(map[string]bool)
	for _, a := range req.Algos {
		if !validSimAlgos[a] {
			return nil, badRequest("bad_request", "unknown algorithm %q (known: cost, exttsp, greedy, orig, try15)", a)
		}
		if seen[a] {
			return nil, badRequest("bad_request", "duplicate algorithm %q", a)
		}
		seen[a] = true
	}
	if req.Window < 0 || req.Window > 24 {
		return nil, badRequest("bad_request", "window %d out of range [0,24]", req.Window)
	}
	return req, nil
}

// computeSimulate dispatches on the request mode.
func (s *Server) computeSimulate(ctx context.Context, reqAny any) (any, *apiError) {
	req := reqAny.(*SimulateRequest)
	var (
		summaries []metrics.Summary
		mode      string
		aerr      *apiError
	)
	if len(req.Programs) > 0 {
		mode = "suite"
		summaries, aerr = s.simulateSuite(ctx, req)
	} else {
		mode = "inline"
		summaries, aerr = s.simulateInline(ctx, req)
	}
	if aerr != nil {
		return nil, aerr
	}
	resp := &SimulateResponse{
		Mode:      mode,
		Summaries: make([]SummaryJSON, len(summaries)),
		Report:    metrics.EncodeSummaries(summaries),
	}
	for i, sm := range summaries {
		resp.Summaries[i] = SummaryJSON{
			Program: sm.Program, Arch: sm.Arch, Algo: sm.Algo,
			Instrs: sm.Instrs, BEP: sm.BEP, Events: sm.Events,
			Misfetches: sm.Misfetches, Mispredicts: sm.Mispredicts,
			Cond: sm.Cond, CondTaken: sm.CondTaken, CondCorrect: sm.CondCorrect,
			ICFetches: sm.ICFetches, ICAccesses: sm.ICAccesses, ICMisses: sm.ICMisses,
			CPI: sm.CPI, FallPct: sm.FallPct, CondAccuracy: sm.CondAccuracy,
			ICMPKI: sm.ICMPKI,
		}
	}
	return resp, nil
}

// simulateSuite runs named workloads through the experiment grid — the
// exact code path behind `baexp suite`, so the encoded report is
// byte-identical to that command's output for the same inputs.
func (s *Server) simulateSuite(ctx context.Context, req *SimulateRequest) ([]metrics.Summary, *apiError) {
	archs := make([]predict.ArchID, len(req.Archs))
	for i, a := range req.Archs {
		archs[i] = predict.ArchID(a)
	}
	cfg := experiments.Config{
		Scale:       req.Scale,
		Seed:        req.Seed,
		Window:      req.Window,
		Programs:    req.Programs,
		Kernel:      s.cfg.Kernel,
		Parallelism: s.cfg.Parallelism,
		Obs:         s.obs,
		Ctx:         ctx,
	}
	summaries, err := experiments.Summaries(cfg, archs)
	if err != nil {
		return nil, &apiError{status: 422, code: "simulate_failed", msg: err.Error()}
	}
	keep := make(map[string]bool, len(req.Algos))
	for _, a := range req.Algos {
		keep[a] = true
	}
	kept := summaries[:0]
	for _, sm := range summaries {
		if keep[sm.Algo] {
			kept = append(kept, sm)
		}
	}
	return kept, nil
}

// inlineVariant is one aligned (or original) layout of the inline program
// together with the (arch, algo) cells that consume its trace.
type inlineVariant struct {
	prog  *ir.Program
	prof  *profile.Profile
	archs []predict.ArchID
	algos []string // index-aligned with archs
}

// simulateInline assembles the request's program, aligns it per algorithm —
// grouping architectures that the paper gives one shared alignment (both
// PHTs, both BTBs) — and simulates each variant's trace across its
// architectures in one streamed generation.
func (s *Server) simulateInline(ctx context.Context, req *SimulateRequest) ([]metrics.Summary, *apiError) {
	prog, err := asm.Assemble(req.Asm)
	if err != nil {
		return nil, badRequest("bad_asm", "%v", err)
	}
	name := req.Name
	if name == "" {
		name = prog.Name
	}
	budget := req.MaxInstrs
	if budget == 0 {
		if req.Generator == "walk" {
			budget = defaultWalkSteps
		} else {
			budget = defaultVMSteps
		}
	}

	// The training run: read the supplied profile, or collect one by
	// executing the original program. Either way origInstrs — the
	// relative-CPI denominator — comes from the original layout's own
	// generation, mirroring the suite's CollectProfile semantics.
	var (
		pf         *profile.Profile
		origInstrs uint64
		origRuns   int
	)
	if req.Profile != "" {
		pf, err = profile.Read(strings.NewReader(req.Profile))
		if err != nil {
			return nil, badRequest("bad_profile", "%v", err)
		}
	}
	switch req.Generator {
	case "walk":
		w := &trace.Walker{Prog: prog, Model: pf.Model(prog), Seed: req.Seed, MaxInstrs: budget}
		origInstrs, origRuns = w.Run(nil, nil)
	default:
		machine := vm.New(prog)
		machine.MaxSteps = budget
		var edges trace.EdgeSink
		var col *profile.Collector
		if pf == nil {
			col = profile.NewCollector(prog)
			edges = col
		}
		res, err := machine.Run(nil, edges)
		if err != nil {
			return nil, &apiError{status: 422, code: "run_failed", msg: err.Error()}
		}
		origInstrs = res.Instrs
		if col != nil {
			pf = col.Profile()
			pf.Instrs = origInstrs
		}
	}

	variants, order, aerr := buildInlineVariants(ctx, prog, pf, req)
	if aerr != nil {
		return nil, aerr
	}

	var summaries []metrics.Summary
	for _, key := range order {
		if err := ctx.Err(); err != nil {
			return nil, ctxError(err)
		}
		v := variants[key]
		instrs, results, aerr := s.simulateVariant(ctx, v, req, budget, origRuns)
		if aerr != nil {
			return nil, aerr
		}
		for i, r := range results {
			summaries = append(summaries, metrics.NewSummary(
				name, string(v.archs[i]), v.algos[i], origInstrs, instrs, r))
		}
	}
	// Canonical response order matches the suite's convention — rows
	// grouped by architecture, algorithms within — using the request's
	// arch/algo order, so bodies are deterministic across scheduling.
	archPos := make(map[string]int, len(req.Archs))
	for i, a := range req.Archs {
		archPos[a] = i
	}
	algoPos := make(map[string]int, len(req.Algos))
	for i, a := range req.Algos {
		algoPos[a] = i
	}
	sort.SliceStable(summaries, func(i, j int) bool {
		if summaries[i].Arch != summaries[j].Arch {
			return archPos[summaries[i].Arch] < archPos[summaries[j].Arch]
		}
		return algoPos[summaries[i].Algo] < algoPos[summaries[j].Algo]
	})
	return summaries, nil
}

// buildInlineVariants aligns the program once per distinct (algorithm,
// model/order group) and fans the requested architectures onto the shared
// variants, in first-need order.
func buildInlineVariants(ctx context.Context, prog *ir.Program, pf *profile.Profile,
	req *SimulateRequest) (map[string]*inlineVariant, []string, *apiError) {

	variants := make(map[string]*inlineVariant)
	var order []string
	add := func(key string, arch predict.ArchID, algo string) *inlineVariant {
		v, ok := variants[key]
		if !ok {
			v = &inlineVariant{}
			variants[key] = v
			order = append(order, key)
		}
		v.archs = append(v.archs, arch)
		v.algos = append(v.algos, algo)
		return v
	}
	// Variant grouping mirrors the suite: Greedy lays chains hottest-first
	// except for BT/FNT (Pettis-Hansen precedence order); Cost and Try15
	// align under each architecture's cost model, with architectures that
	// share a cost group in the registry (both PHTs, both BTBs, both tagged
	// predictors) sharing one variant; ExtTSP's objective is
	// architecture-independent, so one variant serves every architecture.
	keyFor := func(algo string, arch predict.ArchID) string {
		switch algo {
		case "orig":
			return "orig"
		case "exttsp":
			return "exttsp"
		case "greedy":
			if arch == predict.ArchBTFNT {
				return "greedy-btfnt"
			}
			return "greedy"
		default:
			// Archs were validated against the registry on request decode.
			d, _ := predict.Lookup(arch)
			return algo + "-" + string(d.CostGroup)
		}
	}
	for _, algo := range req.Algos {
		for _, a := range req.Archs {
			arch := predict.ArchID(a)
			v := add(keyFor(algo, arch), arch, algo)
			if v.prog != nil {
				continue
			}
			switch algo {
			case "orig":
				v.prog, v.prof = prog, pf
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, ctxError(err)
			}
			opts := core.Options{Window: req.Window}
			switch algo {
			case "greedy":
				opts.Algorithm = core.AlgoGreedy
			case "exttsp":
				opts.Algorithm = core.AlgoExtTSP
			default: // cost, try15: model-guided, per architecture group
				m, err := cost.ForArch(arch)
				if err != nil {
					return nil, nil, badRequest("bad_request", "%v", err)
				}
				if algo == "cost" {
					opts.Algorithm = core.AlgoCost
				} else {
					opts.Algorithm = core.AlgoTryN
				}
				opts.Model = m
			}
			if algo != "exttsp" {
				if arch == predict.ArchBTFNT {
					opts.Order = core.OrderBTFNT
				} else {
					opts.Order = core.OrderHottest
				}
			}
			res, err := core.AlignProgram(prog, pf, opts)
			if err != nil {
				return nil, nil, &apiError{status: 422, code: "align_failed", msg: err.Error()}
			}
			v.prog, v.prof = res.Prog, res.Prof
		}
	}
	return variants, order, nil
}

// simulateVariant traces one variant and simulates it on all of its
// architectures, streaming its packed batches through the server's shared
// broadcast stage. The walk generator is the compiled trace.WalkSource the
// suite's workloads use; the VM runs on a generator goroutine behind a
// trace.FuncSource.
func (s *Server) simulateVariant(ctx context.Context, v *inlineVariant, req *SimulateRequest,
	budget uint64, origRuns int) (uint64, []predict.Result, *apiError) {

	lay, err := trace.CompileLayout(v.prog)
	if err != nil {
		return 0, nil, &apiError{status: 422, code: "simulate_failed", msg: err.Error()}
	}
	var src trace.Source
	if req.Generator == "walk" {
		w := &trace.Walker{Prog: v.prog, Model: v.prof.Model(v.prog), Seed: req.Seed, MaxInstrs: budget}
		if origRuns > 0 {
			// Work-equivalence with the original walk, as the suite's
			// workloads do for aligned variants; the generous ceiling still
			// stops at the inline cap.
			w.MaxRuns = origRuns
			w.MaxInstrs = min(budget*3, maxInlineSteps)
		}
		ws, err := trace.NewWalkSource(w, lay, s.str.BatchCap())
		if err != nil {
			return 0, nil, &apiError{status: 422, code: "simulate_failed", msg: err.Error()}
		}
		src = ws
	} else {
		src = trace.NewFuncSource(lay, s.str.BatchCap(), func(sink trace.Sink) (uint64, error) {
			machine := vm.New(v.prog)
			machine.MaxSteps = budget
			res, err := machine.Run(sink, nil)
			return res.Instrs, err
		})
	}
	results, err := s.exec.SimulateStream(ctx, s.str, lay, src, v.prog, v.prof, v.archs)
	if err != nil {
		if aerr := ctx.Err(); aerr != nil {
			return 0, nil, ctxError(aerr)
		}
		return 0, nil, &apiError{status: 422, code: "simulate_failed", msg: fmt.Sprintf("%v", err)}
	}
	return src.Instrs(), results, nil
}
