package serve

import (
	"cmp"
	"context"
	"errors"
	"net/http"
	"slices"
	"strings"

	"balign/internal/asm"
	"balign/internal/experiments"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/workload"
)

// Inline trace budgets: VM programs run to completion under a step cap,
// stochastic walks are event-budgeted like the suite's synthetic workloads.
// An aligned variant's walk stops after the original's completed runs, within
// 3·budget and maxInlineSteps.
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
//     runs through the same grid as a one-workload suite, so equal variants
//     fold and every row divides by the original's instruction count.
//
// Every request simulates on the flat kernel. Responses are byte-identical
// on the reference simulators, and the golden tests pin that parity.
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
	// (default all). Rows come in this canonical order whatever the
	// request's order.
	Algos []string `json:"algos"`
	// Window is the TryN window size (0 = the paper's 15).
	Window int `json:"window,omitempty"`
}

// SimulateResponse is the /v1/simulate result: the cell grid in canonical
// (program, arch, algo) order plus its stable text encoding — the same
// bytes `baexp suite` prints for the same inputs in suite mode.
type SimulateResponse struct {
	Mode      string            `json:"mode"`
	Summaries []metrics.Summary `json:"summaries"`
	Report    string            `json:"report"`
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
	known := experiments.Algos()
	if len(req.Algos) == 0 {
		for _, a := range known {
			req.Algos = append(req.Algos, string(a))
		}
	}
	seen = make(map[string]bool)
	for _, a := range req.Algos {
		if !slices.Contains(known, experiments.Algo(a)) {
			return nil, badRequest("bad_request", "unknown algorithm %q (known: cost, exttsp, greedy, orig, try15)", a)
		}
		if seen[a] {
			return nil, badRequest("bad_request", "duplicate algorithm %q", a)
		}
		seen[a] = true
	}
	// Canonical column order, so that equivalent bodies share a cache key.
	slices.SortFunc(req.Algos, func(a, b string) int {
		return slices.Index(known, experiments.Algo(a)) - slices.Index(known, experiments.Algo(b))
	})
	if req.Window < 0 || req.Window > 24 {
		return nil, badRequest("bad_request", "window %d out of range [0,24]", req.Window)
	}
	return req, nil
}

// computeSimulate runs the request as a grid: suite mode over the named
// programs, inline mode over a one-workload grid of the posted program.
// Both modes broadcast through the server's streamer.
func (s *Server) computeSimulate(ctx context.Context, reqAny any) (any, *apiError) {
	req := reqAny.(*SimulateRequest)
	archs := make([]predict.ArchID, len(req.Archs))
	for i, a := range req.Archs {
		archs[i] = predict.ArchID(a)
	}
	cfg := experiments.Config{
		Window:      req.Window,
		Kernel:      s.kernel,
		Parallelism: s.cfg.Parallelism,
		Obs:         s.obs,
		Ctx:         ctx,
		Streamer:    s.str,
	}
	for _, a := range req.Algos {
		cfg.Algos = append(cfg.Algos, experiments.Algo(a))
	}
	var (
		summaries []metrics.Summary
		err       error
	)
	mode := "suite"
	if len(req.Programs) > 0 {
		cfg.Scale, cfg.Seed, cfg.Programs = req.Scale, req.Seed, req.Programs
		summaries, err = experiments.Summaries(cfg, archs)
	} else {
		mode = "inline"
		w, aerr := inlineWorkload(req)
		if aerr != nil {
			return nil, aerr
		}
		summaries, err = experiments.WorkloadSummaries([]*workload.Workload{w}, archs, cfg)
		// Inline rows omit the i-cache figures. The recorder's report holds
		// the grid's rows, so clear a copy.
		summaries = slices.Clone(summaries)
		for i := range summaries {
			sm := &summaries[i]
			sm.ICFetches, sm.ICAccesses, sm.ICMisses, sm.ICMPKI = 0, 0, 0, 0
		}
	}
	if err != nil {
		return nil, gridError(err)
	}
	return &SimulateResponse{Mode: mode, Summaries: summaries, Report: metrics.EncodeSummaries(summaries)}, nil
}

// inlineWorkload assembles the request's program and reads its optional
// profile into a one-program workload. The training run happens in the
// grid: the supplied profile's, or one that collects a profile.
func inlineWorkload(req *SimulateRequest) (*workload.Workload, *apiError) {
	prog, err := asm.Assemble(req.Asm)
	if err != nil {
		return nil, badRequest("bad_asm", "%v", err)
	}
	var pf *profile.Profile
	if req.Profile != "" {
		if pf, err = profile.Read(strings.NewReader(req.Profile)); err != nil {
			return nil, badRequest("bad_profile", "%v", err)
		}
	}
	walk := req.Generator == "walk"
	budget := req.MaxInstrs
	if budget == 0 {
		budget = defaultVMSteps
		if walk {
			budget = defaultWalkSteps
		}
	}
	w, err := workload.Inline(cmp.Or(req.Name, prog.Name), prog, pf, walk, req.Seed, budget, maxInlineSteps)
	if err != nil {
		return nil, badRequest("bad_request", "%v", err)
	}
	return w, nil
}

// gridError maps a grid failure to the code of the phase that failed: the
// original's run, an alignment, or a variant's generation or simulation.
func gridError(err error) *apiError {
	code := "simulate_failed"
	switch {
	case errors.Is(err, experiments.ErrProfile):
		code = "run_failed"
	case errors.Is(err, experiments.ErrAlign):
		code = "align_failed"
	}
	return &apiError{status: http.StatusUnprocessableEntity, code: code, msg: err.Error()}
}
