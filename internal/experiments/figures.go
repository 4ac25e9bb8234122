package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"text/tabwriter"

	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/pipeline"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/workload"
)

// EdgeReport describes how one CFG edge is realized by a layout under a
// static architecture: as a fall-through, a predicted taken branch, a
// mispredicted taken branch, or a detour through an inserted jump.
type EdgeReport struct {
	Edge        string
	Disposition string
	Cycles      float64 // per traversal
}

// Figure1Result reproduces the paper's Figure 1 discussion: the ESPRESSO
// fragment's hot edges before and after alignment, per static architecture,
// plus the total model cost of both layouts.
type Figure1Result struct {
	Arch       predict.ArchID
	Before     []EdgeReport
	After      []EdgeReport
	CostBefore float64
	CostAfter  float64
	Stats      core.RewriteStats
}

// Figure1 aligns the reconstructed elim_lowering fragment with TryN under
// each static architecture's cost model and reports the hot edges the paper
// walks through (25->31, 31->25, 27->29).
func Figure1(cfg Config) ([]Figure1Result, error) {
	frag := workload.Figure1()
	hot := [][2]ir.BlockID{{1, 7}, {7, 1}, {3, 5}} // 25->31, 31->25, 27->29
	names := []string{"25->31", "31->25", "27->29"}

	var out []Figure1Result
	for _, arch := range predict.StaticArchs() {
		m, order := trynModelFor(arch)
		res, err := core.AlignProgram(frag.Prog, frag.Prof, core.Options{
			Algorithm: core.AlgoTryN, Model: m, Order: order, Window: cfg.Window,
		})
		if err != nil {
			return nil, err
		}
		r := Figure1Result{
			Arch:       arch,
			CostBefore: cost.ProgramCost(frag.Prog, frag.Prof, m),
			CostAfter:  cost.ProgramCost(res.Prog, res.Prof, m),
			Stats:      res.Stats,
		}
		for i, e := range hot {
			r.Before = append(r.Before, edgeReport(names[i], frag.Prog.Procs[0], frag.Prof.Procs["elim_lowering"], e[0], e[1], m))
			r.After = append(r.After, edgeReportByOrig(names[i], res.Prog.Procs[0], res.Prof.Procs["elim_lowering"], e[0], e[1], m))
		}
		out = append(out, r)
	}
	return out, nil
}

// edgeReport classifies the CFG edge from->to in a procedure whose block
// IDs equal the original IDs.
func edgeReport(name string, p *ir.Proc, pp *profile.ProcProfile, from, to ir.BlockID, m cost.Model) EdgeReport {
	return classifyEdge(name, p, pp, from, to, m)
}

// edgeReportByOrig resolves original block IDs through the rewriter's Orig
// mapping, following a synthesized jump block when the edge was detoured.
func edgeReportByOrig(name string, p *ir.Proc, pp *profile.ProcProfile, fromOrig, toOrig ir.BlockID, m cost.Model) EdgeReport {
	from, to := ir.NoBlock, ir.NoBlock
	for id, b := range p.Blocks {
		if b.Orig == fromOrig {
			from = ir.BlockID(id)
		}
		if b.Orig == toOrig {
			to = ir.BlockID(id)
		}
	}
	if from == ir.NoBlock || to == ir.NoBlock {
		return EdgeReport{Edge: name, Disposition: "missing"}
	}
	return classifyEdge(name, p, pp, from, to, m)
}

func classifyEdge(name string, p *ir.Proc, pp *profile.ProcProfile, from, to ir.BlockID, m cost.Model) EdgeReport {
	rep := EdgeReport{Edge: name}
	b := p.Block(from)
	term, hasTerm := b.Terminator()

	// Detour through a synthesized jump block?
	if f := p.FallSucc(from); f != ir.NoBlock && f != to {
		jb := p.Block(f)
		if jb.Orig == ir.NoBlock {
			if jt, ok := jb.Terminator(); ok && jt.Kind() == ir.Br && jt.TargetBlock == to {
				rep.Disposition = "fall-through + jump"
				rep.Cycles = cost.CyclesFall + cost.CyclesUncond
				return rep
			}
		}
	}

	switch {
	case hasTerm && term.Kind() == ir.CondBr && term.TargetBlock == to:
		// Taken edge: is it predicted under the model?
		backward := p.Block(to).Addr <= b.TermAddr()
		perTraversal := m.CondBranch(0, 1, backward)
		rep.Cycles = perTraversal
		switch {
		case perTraversal <= cost.CyclesTakenPred:
			rep.Disposition = "predicted taken (misfetch)"
		case perTraversal >= cost.CyclesMispredict:
			rep.Disposition = "mispredicted"
		default:
			rep.Disposition = "partly predicted"
		}
		// LIKELY predicts the majority direction, which the weight-free
		// call above cannot see: recover it from the profile.
		if _, ok := m.(cost.LikelyModel); ok {
			c := pp.Branches[from]
			if c.Taken > c.Fall {
				rep.Disposition = "predicted taken (misfetch)"
				rep.Cycles = cost.CyclesTakenPred
			} else {
				rep.Disposition = "mispredicted"
				rep.Cycles = cost.CyclesMispredict
			}
		}
	case hasTerm && term.Kind() == ir.Br && term.TargetBlock == to:
		rep.Disposition = "unconditional branch"
		rep.Cycles = cost.CyclesUncond
	case p.FallSucc(from) == to:
		if hasTerm && term.Kind() == ir.CondBr {
			rep.Disposition = "fall-through of conditional"
			rep.Cycles = cost.CyclesFall
		} else {
			rep.Disposition = "fall-through"
			rep.Cycles = 0
		}
	default:
		rep.Disposition = "not adjacent"
	}
	return rep
}

// FormatFigure1 renders the Figure 1 report.
func FormatFigure1(results []Figure1Result) string {
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, "architecture %s: model cost %.0f -> %.0f (%.1f%% reduction)\n",
			r.Arch, r.CostBefore, r.CostAfter, 100*(1-r.CostAfter/r.CostBefore))
		tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "edge\tbefore\tafter")
		for i := range r.Before {
			fmt.Fprintf(tw, "%s\t%s (%.0f cyc)\t%s (%.0f cyc)\n",
				r.Before[i].Edge, r.Before[i].Disposition, r.Before[i].Cycles,
				r.After[i].Disposition, r.After[i].Cycles)
		}
		tw.Flush()
		sb.WriteString("\n")
	}
	return sb.String()
}

// Figure2Result reproduces the ALVINN single-block-loop arithmetic: cost
// per loop iteration before and after the loop trick on FALLTHROUGH.
type Figure2Result struct {
	CyclesPerIterBefore float64
	CyclesPerIterAfter  float64
	Stats               core.RewriteStats
}

// Figure2 runs the loop trick on the reconstructed input_hidden fragment.
func Figure2(cfg Config) (*Figure2Result, error) {
	frag := workload.Figure2()
	m := cost.FallthroughModel{}
	res, err := core.AlignProgram(frag.Prog, frag.Prof, core.Options{
		Algorithm: core.AlgoTryN, Model: m, Window: cfg.Window,
	})
	if err != nil {
		return nil, err
	}
	iters := float64(frag.Prof.Procs["input_hidden"].Weight(1, 1))
	return &Figure2Result{
		CyclesPerIterBefore: cost.ProgramCost(frag.Prog, frag.Prof, m) / iters,
		CyclesPerIterAfter:  cost.ProgramCost(res.Prog, res.Prof, m) / iters,
		Stats:               res.Stats,
	}, nil
}

// Figure3Result reproduces the Figure 3 loop-breaking comparison: branch
// cost of the original, Greedy-aligned and TryN-aligned loop under a model.
type Figure3Result struct {
	Model      string
	CostOrig   float64
	CostGreedy float64
	CostTryN   float64
}

// Figure3 compares the algorithms on the loop only TryN knows where to
// break.
func Figure3(cfg Config) ([]Figure3Result, error) {
	frag := workload.Figure3()
	var out []Figure3Result
	for _, m := range []cost.Model{cost.BTFNTModel{}, cost.LikelyModel{}} {
		greedy, err := core.AlignProgram(frag.Prog, frag.Prof, core.Options{
			Algorithm: core.AlgoGreedy, Order: core.OrderBTFNT,
		})
		if err != nil {
			return nil, err
		}
		tryn, err := core.AlignProgram(frag.Prog, frag.Prof, core.Options{
			Algorithm: core.AlgoTryN, Model: m, Order: core.OrderBTFNT, Window: cfg.Window,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Figure3Result{
			Model:      m.Name(),
			CostOrig:   cost.ProgramCost(frag.Prog, frag.Prof, m),
			CostGreedy: cost.ProgramCost(greedy.Prog, greedy.Prof, m),
			CostTryN:   cost.ProgramCost(tryn.Prog, tryn.Prof, m),
		})
	}
	return out, nil
}

// Figure4Row is one program's relative execution time on the Alpha-like
// dual-issue pipeline model (paper Figure 4): original = 1.0.
type Figure4Row struct {
	Program    string
	RelOrig    float64
	RelGreedy  float64
	RelTry     float64
	CyclesOrig float64
}

// Figure4 measures total modeled execution time for the SPEC92 C programs:
// original, Pettis-Hansen (Greedy, hottest-first chains) and Try15 (with
// the BTB cost model, which the paper's OM implementation found best on the
// real machine).
func Figure4(cfg Config) ([]Figure4Row, error) {
	ws, err := workload.CSuite(workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if len(cfg.Programs) > 0 {
		ws = slices.DeleteFunc(ws, func(w *workload.Workload) bool { return !slices.Contains(cfg.Programs, w.Name) })
	}

	labels := make([]string, len(ws))
	for i, w := range ws {
		labels[i] = w.Name
	}
	rows := make([]Figure4Row, len(ws))
	err = runIndexed(cfg, "fig4", labels, func(ctx context.Context, p simPath, i int) error {
		w := ws[i]
		pf, _, err := w.CollectProfile()
		if err != nil {
			return err
		}
		cycles := func(prog *ir.Program, prof *profile.Profile) (float64, error) {
			sim := pipeline.New(pipeline.DefaultConfig())
			_, instrs, err := p.stream(ctx, w, &variant{prog: prog, prof: prof}, nil, nil, sim)
			if err != nil {
				return 0, err
			}
			return sim.Cycles(instrs), nil
		}
		base, err := cycles(w.Prog, pf)
		if err != nil {
			return err
		}
		greedy, err := core.AlignProgram(w.Prog, pf, core.Options{Algorithm: core.AlgoGreedy})
		if err != nil {
			return err
		}
		gc, err := cycles(greedy.Prog, greedy.Prof)
		if err != nil {
			return err
		}
		tryn, err := core.AlignProgram(w.Prog, pf, core.Options{
			Algorithm: core.AlgoTryN, Model: cost.BTBModel{}, Window: cfg.Window,
		})
		if err != nil {
			return err
		}
		tc, err := cycles(tryn.Prog, tryn.Prof)
		if err != nil {
			return err
		}
		rows[i] = Figure4Row{
			Program: w.Name, RelOrig: 1.0,
			RelGreedy: gc / base, RelTry: tc / base,
			CyclesOrig: base,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatFigure4 renders the Figure 4 series.
func FormatFigure4(rows []Figure4Row) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Program\tOriginal\tPettis&Hansen\tTry15\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t\n", r.Program, r.RelOrig, r.RelGreedy, r.RelTry)
	}
	tw.Flush()
	return sb.String()
}
