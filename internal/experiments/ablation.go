package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/predict"
	"balign/internal/workload"
)

// AblationRow compares design choices the paper discusses in §6.1 on one
// program: chain ordering for Greedy, the algorithm ladder
// (Greedy < Cost < TryN) under the FALLTHROUGH model, and TryN window
// sizes (the paper's Try10-vs-Try15 remark).
type AblationRow struct {
	Program string

	// Greedy chain ordering, evaluated as relative CPI on BT/FNT.
	GreedyHottestCPI float64
	GreedyBTFNTCPI   float64

	// Algorithm ladder: model cost under FALLTHROUGH, normalized to the
	// original program's cost (lower is better). ExtTSP optimizes its own
	// distance-weighted objective, not this model, so its column shows how
	// much of the model-targeted win the objective recovers for free.
	CostGreedy float64
	CostCost   float64
	CostTryN   float64
	CostExtTSP float64

	// TryN window sweep: model cost (normalized) for windows 5, 10, 15.
	Window5  float64
	Window10 float64
	Window15 float64
}

// Ablation runs the §6.1 design-choice comparisons over the configured
// programs (default: a representative trio).
func Ablation(cfg Config) ([]AblationRow, error) {
	programs := cfg.Programs
	if len(programs) == 0 {
		programs = []string{"espresso", "eqntott", "doduc"}
	}
	rows := make([]AblationRow, len(programs))
	err := runIndexed(cfg, "ablation", programs, func(ctx context.Context, p simPath, i int) error {
		name := programs[i]
		w, err := workload.ByName(name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		pf, origInstrs, err := w.CollectProfile()
		if err != nil {
			return err
		}
		row := AblationRow{Program: name}

		// Chain ordering on BT/FNT.
		cpiOn := func(opts core.Options) (float64, error) {
			res, err := core.AlignProgram(w.Prog, pf, opts)
			if err != nil {
				return 0, err
			}
			return p.cpi(ctx, w, &variant{prog: res.Prog, prof: res.Prof}, predict.ArchBTFNT, origInstrs)
		}
		if row.GreedyHottestCPI, err = cpiOn(core.Options{Algorithm: core.AlgoGreedy, Order: core.OrderHottest}); err != nil {
			return err
		}
		if row.GreedyBTFNTCPI, err = cpiOn(core.Options{Algorithm: core.AlgoGreedy, Order: core.OrderBTFNT}); err != nil {
			return err
		}

		// Algorithm ladder under the FALLTHROUGH model.
		m := cost.FallthroughModel{}
		base := cost.ProgramCost(w.Prog, pf, m)
		ladder := func(opts core.Options) (float64, error) {
			res, err := core.AlignProgram(w.Prog, pf, opts)
			if err != nil {
				return 0, err
			}
			return cost.ProgramCost(res.Prog, res.Prof, m) / base, nil
		}
		if row.CostGreedy, err = ladder(core.Options{Algorithm: core.AlgoGreedy}); err != nil {
			return err
		}
		if row.CostCost, err = ladder(core.Options{Algorithm: core.AlgoCost, Model: m}); err != nil {
			return err
		}
		if row.CostTryN, err = ladder(core.Options{Algorithm: core.AlgoTryN, Model: m, Window: cfg.Window}); err != nil {
			return err
		}
		if row.CostExtTSP, err = ladder(core.Options{Algorithm: core.AlgoExtTSP}); err != nil {
			return err
		}

		// Window sweep.
		for _, win := range []int{5, 10, 15} {
			v, err := ladder(core.Options{Algorithm: core.AlgoTryN, Model: m, Window: win})
			if err != nil {
				return err
			}
			switch win {
			case 5:
				row.Window5 = v
			case 10:
				row.Window10 = v
			case 15:
				row.Window15 = v
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatAblation renders the ablation rows.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Program\tGreedy(hot)CPI\tGreedy(btfnt)CPI\tGreedy\tCost\tTryN\tExtTSP\tW5\tW10\tW15\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t\n",
			r.Program, r.GreedyHottestCPI, r.GreedyBTFNTCPI,
			r.CostGreedy, r.CostCost, r.CostTryN, r.CostExtTSP,
			r.Window5, r.Window10, r.Window15)
	}
	tw.Flush()
	return sb.String()
}
