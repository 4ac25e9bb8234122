package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/icache"
	"balign/internal/ir"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/workload"
)

// PenaltyRow is one point of the penalty-sensitivity sweep: how the benefit
// of alignment scales as the mispredict penalty grows — the paper's claim
// that "as wide-issue architectures become more popular, branch alignment
// algorithms will have a larger impact".
type PenaltyRow struct {
	MispredictPenalty uint64
	CPIOrig           float64
	CPITry            float64
	// GainPct is the relative CPI improvement in percent.
	GainPct float64
}

// PenaltySweep evaluates one program on the FALLTHROUGH architecture under
// increasing mispredict penalties (2, 4, 8, 12 cycles; misfetch stays 1).
func PenaltySweep(program string, cfg Config) ([]PenaltyRow, error) {
	w, err := workload.ByName(program, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	pf, origInstrs, err := w.CollectProfile()
	if err != nil {
		return nil, err
	}
	res, err := core.AlignProgram(w.Prog, pf, core.Options{
		Algorithm: core.AlgoTryN, Model: cost.FallthroughModel{}, Window: cfg.Window,
	})
	if err != nil {
		return nil, err
	}

	p, err := cfg.simPath()
	if err != nil {
		return nil, err
	}
	ro, _, err := p.stream(cfg.Ctx, w, &variant{prog: w.Prog, prof: pf}, []predict.ArchID{predict.ArchFallthrough}, nil)
	if err != nil {
		return nil, err
	}
	rt, tryInstrs, err := p.stream(cfg.Ctx, w, &variant{prog: res.Prog, prof: res.Prof}, []predict.ArchID{predict.ArchFallthrough}, nil)
	if err != nil {
		return nil, err
	}

	var rows []PenaltyRow
	for _, mp := range []uint64{2, 4, 8, 12} {
		cpiO := metrics.RelativeCPI(origInstrs, origInstrs, ro[0].BEP(1, mp))
		cpiT := metrics.RelativeCPI(origInstrs, tryInstrs, rt[0].BEP(1, mp))
		rows = append(rows, PenaltyRow{
			MispredictPenalty: mp,
			CPIOrig:           cpiO,
			CPITry:            cpiT,
			GainPct:           100 * (1 - cpiT/cpiO),
		})
	}
	return rows, nil
}

// FormatPenaltySweep renders the sweep.
func FormatPenaltySweep(program string, rows []PenaltyRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s\tmispredict\tCPI orig\tCPI try15\tgain%%\t\n", program)
	for _, r := range rows {
		fmt.Fprintf(tw, "\t%d\t%.3f\t%.3f\t%.1f\t\n", r.MispredictPenalty, r.CPIOrig, r.CPITry, r.GainPct)
	}
	tw.Flush()
	return sb.String()
}

// CrossTrainRow reports profile robustness: the program is aligned with a
// profile from one input and evaluated both on that input and on a
// different one (the honest profile-guided-optimization methodology; the
// paper uses the same input for both, which it acknowledges).
type CrossTrainRow struct {
	Program      string
	CPIOrig      float64 // original layout, evaluation input
	CPISameInput float64 // aligned, evaluated on the training input
	CPICrossIn   float64 // aligned, evaluated on a different input
}

// CrossTraining measures train/test input sensitivity on the FALLTHROUGH
// architecture for kernel workloads (whose inputs are real data).
func CrossTraining(programs []string, cfg Config) ([]CrossTrainRow, error) {
	if len(programs) == 0 {
		programs = []string{"compress", "eqntott", "li"}
	}
	rows := make([]CrossTrainRow, len(programs))
	err := runIndexed(cfg, "crosstrain", programs, func(ctx context.Context, p simPath, i int) error {
		name := programs[i]
		train, err := workload.ByName(name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed, InputSeed: 0})
		if err != nil {
			return err
		}
		test, err := workload.ByName(name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed, InputSeed: 1})
		if err != nil {
			return err
		}
		// Each column's CPI denominator is the original's instruction
		// count on the input that column runs.
		pf, trainInstrs, err := train.CollectProfile()
		if err != nil {
			return err
		}
		_, testInstrs, err := test.CollectProfile()
		if err != nil {
			return err
		}
		res, err := core.AlignProgram(train.Prog, pf, core.Options{
			Algorithm: core.AlgoTryN, Model: cost.FallthroughModel{}, Window: cfg.Window,
		})
		if err != nil {
			return err
		}
		aligned := &variant{prog: res.Prog, prof: res.Prof}

		row := CrossTrainRow{Program: name}
		if row.CPIOrig, err = p.cpi(ctx, test, &variant{prog: test.Prog, prof: pf}, predict.ArchFallthrough, testInstrs); err != nil {
			return err
		}
		if row.CPISameInput, err = p.cpi(ctx, train, aligned, predict.ArchFallthrough, trainInstrs); err != nil {
			return err
		}
		if row.CPICrossIn, err = p.cpi(ctx, test, aligned, predict.ArchFallthrough, testInstrs); err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatCrossTraining renders the cross-training rows.
func FormatCrossTraining(rows []CrossTrainRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Program\tOrig(test input)\tAligned(train input)\tAligned(test input)\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t\n", r.Program, r.CPIOrig, r.CPISameInput, r.CPICrossIn)
	}
	tw.Flush()
	return sb.String()
}

// UnrollRow compares alignment alone against unroll+alignment on a program
// dominated by single-block loops (the paper's ALVINN suggestion).
type UnrollRow struct {
	Program      string
	CPIOrig      float64
	CPIAligned   float64
	CPIUnrolled  float64 // unroll + align
	LoopsHandled int
}

// UnrollStudy evaluates the loop-unrolling extension on the FALLTHROUGH
// architecture.
func UnrollStudy(programs []string, cfg Config) ([]UnrollRow, error) {
	if len(programs) == 0 {
		programs = []string{"alvinn", "tomcatv"}
	}
	rows := make([]UnrollRow, len(programs))
	err := runIndexed(cfg, "unroll", programs, func(ctx context.Context, p simPath, i int) error {
		name := programs[i]
		w, err := workload.ByName(name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		pf, origInstrs, err := w.CollectProfile()
		if err != nil {
			return err
		}
		opts := core.Options{
			Algorithm: core.AlgoTryN, Model: cost.FallthroughModel{}, Window: cfg.Window,
		}
		aligned, err := core.AlignProgram(w.Prog, pf, opts)
		if err != nil {
			return err
		}
		up, upf, ustats, err := core.UnrollLoops(w.Prog, pf, core.DefaultUnrollOptions())
		if err != nil {
			return err
		}
		// An unrolled program is not a layout of the original: a VM workload
		// runs it as a workload of its own, a walk as a variant.
		uw := w
		if w.IsKernel() {
			uw = w.WithProgram(up)
			up = uw.Prog
		}
		unrolled, err := core.AlignProgram(up, upf, opts)
		if err != nil {
			return err
		}

		ro, _, err := p.stream(ctx, w, &variant{prog: w.Prog, prof: pf}, []predict.ArchID{predict.ArchFallthrough}, nil)
		if err != nil {
			return err
		}
		row := UnrollRow{Program: name, LoopsHandled: ustats.LoopsUnrolled}
		row.CPIOrig = metrics.RelativeCPI(origInstrs, origInstrs, metrics.BEPFromResult(ro[0]))
		if row.CPIAligned, err = p.cpi(ctx, w, &variant{prog: aligned.Prog, prof: aligned.Prof}, predict.ArchFallthrough, origInstrs); err != nil {
			return err
		}
		if row.CPIUnrolled, err = p.cpi(ctx, uw, &variant{prog: unrolled.Prog, prof: unrolled.Prof}, predict.ArchFallthrough, origInstrs); err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatUnrollStudy renders the unroll study.
func FormatUnrollStudy(rows []UnrollRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Program\tOrig\tAligned\tUnroll+Align\tLoops\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%d\t\n", r.Program, r.CPIOrig, r.CPIAligned, r.CPIUnrolled, r.LoopsHandled)
	}
	tw.Flush()
	return sb.String()
}

// ICacheRow reports the instruction-cache side effect of alignment the
// paper's prior work targeted: misses per thousand fetched instructions on
// a small I-cache for the original, Greedy and TryN layouts.
type ICacheRow struct {
	Program    string
	MPKIOrig   float64
	MPKIGreedy float64
	MPKITry    float64
}

// ICacheStudy measures I-cache behaviour before and after alignment. The
// cache is deliberately small (see icache.DefaultConfig) to exert pressure
// at reproduction scale.
func ICacheStudy(programs []string, cfg Config) ([]ICacheRow, error) {
	if len(programs) == 0 {
		programs = []string{"gcc", "cfront", "espresso"}
	}
	rows := make([]ICacheRow, len(programs))
	err := runIndexed(cfg, "icache", programs, func(ctx context.Context, p simPath, i int) error {
		name := programs[i]
		w, err := workload.ByName(name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		pf, _, err := w.CollectProfile()
		if err != nil {
			return err
		}
		mpki := func(prog *ir.Program, prof *profile.Profile) (float64, error) {
			ic := icache.New(icache.DefaultConfig())
			if _, _, err := p.stream(ctx, w, &variant{prog: prog, prof: prof}, nil, ic); err != nil {
				return 0, err
			}
			return ic.MPKI(), nil
		}
		row := ICacheRow{Program: name}
		if row.MPKIOrig, err = mpki(w.Prog, pf); err != nil {
			return err
		}
		greedy, err := core.AlignProgram(w.Prog, pf, core.Options{Algorithm: core.AlgoGreedy})
		if err != nil {
			return err
		}
		if row.MPKIGreedy, err = mpki(greedy.Prog, greedy.Prof); err != nil {
			return err
		}
		tryn, err := core.AlignProgram(w.Prog, pf, core.Options{
			Algorithm: core.AlgoTryN, Model: cost.BTFNTModel{}, Window: cfg.Window,
		})
		if err != nil {
			return err
		}
		if row.MPKITry, err = mpki(tryn.Prog, tryn.Prof); err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatICacheStudy renders the I-cache rows.
func FormatICacheStudy(rows []ICacheRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Program\tMPKI orig\tMPKI greedy\tMPKI try15\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t\n", r.Program, r.MPKIOrig, r.MPKIGreedy, r.MPKITry)
	}
	tw.Flush()
	return sb.String()
}
