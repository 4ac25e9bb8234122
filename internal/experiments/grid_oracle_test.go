package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/kernel"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/sim"
	"balign/internal/trace"
	"balign/internal/workload"
)

// TestStreamPerSiteParityAcrossGrid is the generation half of the per-site
// guarantee for the VM workloads: for every variant gridVariants returns,
// the batches w.Stream produces — the original's decision log replayed
// through the variant's layout — decoded through the layout, equal the
// events w.Run pushes as the VM executes that layout, field for field, with
// the same instruction count, and that run pushes at least one event.
// Equal event sequences give every consumer — flat kernel, reference
// simulator, per-site recorder — the same per-site attribution from either
// generator, so a divergence in TestKernelPerSiteParityAcrossGrid that this
// test does not share lies in the kernel, not in the stream. A
// walker-backed workload's stream needs no such check: Run decodes the
// same trace.WalkSource.
func TestStreamPerSiteParityAcrossGrid(t *testing.T) {
	t.Parallel()
	reportGridCheck(t, vmWorkloads, func(f *gridFindings) findings { return f.stream })
}

// TestKernelPerSiteParityAcrossGrid proves the per-site guarantee behind
// the byte-identical reports: for every workload kernel, every variant
// gridVariants returns, and every architecture, the streamed generation
// broadcast to one kernel compiled for every architecture — the way the
// executor feeds it — yields results and per-site penalty counts equal to
// the reference simulator replaying the events the same workload pushes
// through w.Run.
func TestKernelPerSiteParityAcrossGrid(t *testing.T) {
	t.Parallel()
	reportGridCheck(t, kernelWorkloads, func(f *gridFindings) findings { return f.perSite })
}

// TestCostModelIsTheStaticSimulator pins the identity the paper's method
// rests on: on the static architectures, on a VM workload's training
// input, Table 1's cost model is the simulator. For every variant
// gridVariants returns, under FALLTHROUGH, BT/FNT and LIKELY, each direct
// branch site's cost.ProcSiteCosts price must equal its simulated
// executions plus penalty cycles (misfetch 1, mispredict 4), and the
// program's summed cost.ProcCost must equal the same sum over every
// conditional and unconditional site the kernel saw. So lowering the
// model's cost lowers the simulated static BEP one for one.
func TestCostModelIsTheStaticSimulator(t *testing.T) {
	t.Parallel()
	reportGridCheck(t, vmWorkloads, func(f *gridFindings) findings { return f.identity })
}

// reportGridCheck runs one parallel subtest per named workload, reporting
// the failures check picks from that workload's pass. The three tests
// above share each workload's pass; whichever reaches it first runs it.
func reportGridCheck(t *testing.T, names []string, check func(*gridFindings) findings) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f, err := gridPasses[name]()
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range check(f) {
				t.Error(msg)
			}
		})
	}
}

// findings collects one check's failures during a pass, for the test that
// owns the check to report.
type findings []string

// Errorf records one failure.
func (f *findings) Errorf(format string, args ...any) { *f = append(*f, fmt.Sprintf(format, args...)) }

// gridFindings are one workload's pass failures, per check.
type gridFindings struct {
	stream, perSite, identity findings
}

// gridPasses holds each VM workload's pass, run at most once per test
// binary. Only the findings are kept: a variant's kernel and layout are
// dropped as soon as its checks are done, and its recording is reused by
// the next variant.
var gridPasses = func() map[string]func() (*gridFindings, error) {
	m := make(map[string]func() (*gridFindings, error), len(vmWorkloads))
	for _, name := range vmWorkloads {
		m[name] = sync.OnceValues(func() (*gridFindings, error) { return gridPass(name) })
	}
	return m
}()

// gridPass runs the stream, per-site and identity checks over every
// variant gridVariants returns for the named VM workload, preparing the
// variants once. An error means the pass could not run at all.
func gridPass(name string) (*gridFindings, error) {
	u, keys, err := gridVariants(name, predict.AllArchs())
	if err != nil {
		return nil, err
	}
	f := new(gridFindings)
	if !u.w.IsKernel() {
		f.identity.Errorf("%s is not a VM workload", name)
	}
	// A paper kernel's kernel runs every architecture for the per-site
	// check; an extended family's only the static ones the identity reads.
	perSite := slices.Contains(kernelWorkloads, name)
	archs := predict.StaticArchs()
	if perSite {
		archs = predict.AllArchs()
	}
	str := sim.NewStreamer(nil)
	var rec trace.Recorder // one variant's events at a time
	for _, key := range keys {
		rec.Events = rec.Events[:0]
		if err := f.checkVariant(str, &rec, u.w, key, u.variants[key], archs, perSite); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, key, err)
		}
	}
	return f, nil
}

// checkVariant records one variant's execution on the VM into the empty
// rec and broadcasts one stream of it to two consumers: a decoder that
// compares each event with the recording (the stream check) and one
// kernel compiled for archs. It then replays the recording through each
// reference simulator when perSite is set (the per-site check), and on a
// VM workload prices the layout under each static model (the identity
// check).
func (f *gridFindings) checkVariant(str *sim.Streamer, rec *trace.Recorder, w *workload.Workload, key string, v *variant,
	archs []predict.ArchID, perSite bool) error {
	instrs, err := w.Run(v.prog, v.prof, rec, nil)
	if err != nil {
		return fmt.Errorf("Run: %w", err)
	}
	if len(rec.Events) == 0 {
		f.stream.Errorf("%s/%s: Run pushed no events", w.Name, key)
		return nil
	}
	lay, err := trace.CompileLayout(v.prog)
	if err != nil {
		return fmt.Errorf("CompileLayout: %w", err)
	}
	k, err := kernel.CompileArchs(lay, v.prog, v.prof, archs, nil)
	if err != nil {
		return fmt.Errorf("CompileArchs: %w", err)
	}
	src, err := w.Stream(v.prog, v.prof, lay, 0)
	if err != nil {
		return fmt.Errorf("Stream: %w", err)
	}
	defer src.Close()

	// One streamed generation feeds the decoder and the kernel.
	var n int
	diverged := false
	compare := func(b *trace.Batch) error {
		return lay.Decode(b, func(e trace.Event) {
			if !diverged && n < len(rec.Events) && e != rec.Events[n] {
				f.stream.Errorf("%s/%s: event %d: stream %+v, Run %+v", w.Name, key, n, e, rec.Events[n])
				diverged = true
			}
			n++
		})
	}
	if err := str.Broadcast(nil, src, []func(*trace.Batch) error{compare, k.RunBatch}); err != nil {
		return fmt.Errorf("Broadcast: %w", err)
	}
	if n != len(rec.Events) {
		f.stream.Errorf("%s/%s: streamed %d events, Run pushed %d", w.Name, key, n, len(rec.Events))
	}
	if got := src.Instrs(); got != instrs {
		f.stream.Errorf("%s/%s: streamed %d instrs, Run retired %d", w.Name, key, got, instrs)
	}

	// Each architecture must match the reference per-site attribution
	// over the recorded events exactly.
	if perSite {
		results := k.Results()
		for i, arch := range archs {
			ref, err := predict.NewSimulator(arch, v.prog, v.prof)
			if err != nil {
				return fmt.Errorf("%s: NewSimulator: %w", arch, err)
			}
			wantRes, wantCosts := kernel.ReferenceRun(ref, rec.Events)
			if got := results[i]; got != wantRes {
				f.perSite.Errorf("%s/%s: Result mismatch:\n kernel    %+v\n reference %+v", key, arch, got, wantRes)
			}
			if got := k.SiteCostsOf(i); !reflect.DeepEqual(got, wantCosts) {
				f.perSite.Errorf("%s/%s: per-site costs diverge (%d kernel sites, %d reference sites)",
					key, arch, len(got), len(wantCosts))
			}
		}
	}

	if w.IsKernel() {
		for _, arch := range predict.StaticArchs() {
			m, err := cost.ForArch(arch)
			if err != nil {
				return err
			}
			sites := k.SiteCostsOf(slices.Index(archs, arch))
			checkModelIsSimulator(&f.identity, key+"/"+string(arch), v.prog, v.prof, lay, sites, m)
		}
	}
	return nil
}

// checkModelIsSimulator compares m's price of prog under prof with the
// simulated cycles sites holds, per site and over the program.
func checkModelIsSimulator(f *findings, label string, prog *ir.Program, prof *profile.Profile, lay *trace.Layout,
	sites map[uint64]kernel.SiteCost, m cost.Model) {
	cycles := func(pc uint64) float64 {
		c := sites[pc]
		return float64(c.Events + c.Cycles(predict.DefaultMisfetchPenalty, predict.DefaultMispredictPenalty))
	}
	var modelSum, simSum float64
	for _, p := range prog.Procs {
		pp := prof.Procs[p.Name]
		if pp == nil {
			pp = profile.NewProcProfile()
		}
		modelSum += cost.ProcCost(p, pp, m)
		for _, sc := range cost.ProcSiteCosts(p, pp, m) {
			if got := cycles(sc.PC); sc.Cost != got {
				f.Errorf("%s: %s block %d (pc %#x): model prices %v cycles, the simulator counts %v",
					label, p.Name, sc.Block, sc.PC, sc.Cost, got)
			}
		}
	}
	for _, s := range lay.Sites() {
		if s.Kind == ir.CondBr || s.Kind == ir.Br {
			simSum += cycles(s.PC)
		}
	}
	if modelSum != simSum {
		f.Errorf("%s: model prices the program at %v cycles, the simulator counts %v", label, modelSum, simSum)
	}
}

// gridVariants builds the named workload's evaluation unit and returns it
// with the keys of every variant the per-variant oracles check: the grid's
// distinct variants (orig, Greedy in both chain orders, Cost and Try15 per
// cost model, ExtTSP, after preparation folds equal ones; a folded key is
// the same variant, so TestFoldMatchesDigest covers it instead) plus the
// paper's Cost heuristic under the FALLTHROUGH model with no chain order,
// which the tables ablate but evalUnit does not fan out. That extra
// variant gets one FALLTHROUGH cell, in the grid's FALLTHROUGH/cost row,
// so runVariant can evaluate it like any other.
func gridVariants(name string, archs []predict.ArchID) (*evalUnit, []string, error) {
	cfg := fastCfg(name)
	w, err := workload.ByName(name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, fmt.Errorf("ByName: %w", err)
	}
	u, err := newEvalUnit(w, archs, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("newEvalUnit: %w", err)
	}
	cm, _ := trynModelFor(predict.ArchFallthrough)
	cres, err := core.AlignProgram(w.Prog, u.pf, core.Options{Algorithm: core.AlgoCost, Model: cm})
	if err != nil {
		return nil, nil, fmt.Errorf("AlignProgram(cost): %w", err)
	}
	u.variants["cost"] = &variant{prog: cres.Prog, prof: cres.Prof}
	row := slices.Index(archs, predict.ArchFallthrough)*len(Algos()) + slices.Index(Algos(), AlgoCost)
	u.specs["cost"] = []simSpec{{predict.ArchFallthrough, AlgoCost, row}}
	return u, append(append([]string{}, u.keys...), "cost"), nil
}
