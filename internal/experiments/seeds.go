package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/workload"
)

// SeedRow summarizes alignment benefit across independently seeded
// instances of one synthetic program: the paper reports single runs; this
// sweep checks the reproduction's conclusions are not artifacts of one
// random program instance.
type SeedRow struct {
	Program string
	Seeds   int
	// MeanGainPct / StdGainPct summarize the relative CPI improvement of
	// TryN over the original layout on FALLTHROUGH, in percent.
	MeanGainPct float64
	StdGainPct  float64
	MinGainPct  float64
	MaxGainPct  float64
}

// SeedSweep evaluates the FALLTHROUGH alignment gain over several seeds.
func SeedSweep(programs []string, seeds int, cfg Config) ([]SeedRow, error) {
	if len(programs) == 0 {
		programs = []string{"ora", "doduc"}
	}
	if seeds <= 0 {
		seeds = 5
	}
	// The {program x seed} grid is flat: every point is independent, so it
	// shards across the engine as one task list and reduces per program.
	type point struct {
		name string
		seed int
	}
	var points []point
	var labels []string
	for _, name := range programs {
		for s := 0; s < seeds; s++ {
			points = append(points, point{name, s})
			labels = append(labels, fmt.Sprintf("%s/seed%d", name, s))
		}
	}
	gainAt := make([]float64, len(points))
	err := runIndexed(cfg, "seeds", labels, func(ctx context.Context, p simPath, i int) error {
		pt := points[i]
		w, err := workload.ByName(pt.name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed + int64(pt.seed)*1001})
		if err != nil {
			return err
		}
		pf, origInstrs, err := w.CollectProfile()
		if err != nil {
			return err
		}
		res, err := core.AlignProgram(w.Prog, pf, core.Options{
			Algorithm: core.AlgoTryN, Model: cost.FallthroughModel{}, Window: cfg.Window,
		})
		if err != nil {
			return err
		}
		ro, _, err := p.stream(ctx, w, &variant{prog: w.Prog, prof: pf}, []predict.ArchID{predict.ArchFallthrough}, nil)
		if err != nil {
			return err
		}
		cpiT, err := p.cpi(ctx, w, &variant{prog: res.Prog, prof: res.Prof}, predict.ArchFallthrough, origInstrs)
		if err != nil {
			return err
		}
		cpiO := metrics.RelativeCPI(origInstrs, origInstrs, metrics.BEPFromResult(ro[0]))
		gainAt[i] = 100 * (1 - cpiT/cpiO)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows []SeedRow
	for pi, name := range programs {
		gains := gainAt[pi*seeds : (pi+1)*seeds]
		mean, std := meanStd(gains)
		mn, mx := gains[0], gains[0]
		for _, g := range gains {
			mn = math.Min(mn, g)
			mx = math.Max(mx, g)
		}
		rows = append(rows, SeedRow{
			Program: name, Seeds: seeds,
			MeanGainPct: mean, StdGainPct: std, MinGainPct: mn, MaxGainPct: mx,
		})
	}
	return rows, nil
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)-1))
	return mean, std
}

// FormatSeedSweep renders the sweep.
func FormatSeedSweep(rows []SeedRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Program\tseeds\tmean gain%\tstd\tmin\tmax\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
			r.Program, r.Seeds, r.MeanGainPct, r.StdGainPct, r.MinGainPct, r.MaxGainPct)
	}
	tw.Flush()
	return sb.String()
}
