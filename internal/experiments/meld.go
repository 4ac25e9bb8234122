package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/workload"
)

// MeldRow is one cell row of the alignment-vs-elimination ablation: the
// same program evaluated as laid out (orig), aligned (Try15 with the
// architecture's cost model), branch-melded (if-converted with cmov, no
// realignment), and melded-then-aligned. All CPIs are relative to the
// original program's instruction count, so the melded columns include the
// cost of the extra always-executed cmov instructions — elimination only
// wins when removing the branch buys more than the speculated work costs,
// which is exactly the trade the paper's alignment sidesteps.
type MeldRow struct {
	Program string
	Arch    predict.ArchID
	// Sites is the number of branch sites the if-converter removed.
	Sites          int
	CPIOrig        float64
	CPIAligned     float64
	CPIMeld        float64
	CPIMeldAligned float64
}

// meldStudyArchs spans the static/dynamic divide: static fetch
// architectures price every branch, so elimination helps most; the PHT and
// BTB predict the cheap branches away and leave melding mostly its
// instruction overhead.
func meldStudyArchs() []predict.ArchID {
	return []predict.ArchID{predict.ArchFallthrough, predict.ArchBTFNT, predict.ArchPHTDirect, predict.ArchBTB64}
}

// MeldStudy runs the ablation for each base program that has a registered
// *-meld variant (default: all of them).
func MeldStudy(programs []string, cfg Config) ([]MeldRow, error) {
	if len(programs) == 0 {
		programs = []string{"sc", "espresso"}
	}
	archs := meldStudyArchs()
	rows := make([]MeldRow, len(programs)*len(archs))
	err := runIndexed(cfg, "meld", programs, func(ctx context.Context, p simPath, i int) error {
		name := programs[i]
		wcfg := workload.Config{Scale: cfg.Scale, Seed: cfg.Seed}
		base, err := workload.ByName(name, wcfg)
		if err != nil {
			return err
		}
		meld, err := workload.ByName(name+"-meld", wcfg)
		if err != nil {
			return err
		}
		_, sites, err := workload.MeldProgram(base.Prog)
		if err != nil {
			return err
		}
		basePf, origInstrs, err := base.CollectProfile()
		if err != nil {
			return err
		}
		meldPf, _, err := meld.CollectProfile()
		if err != nil {
			return err
		}

		// Each original streams once, through every study architecture;
		// only the aligned layouts differ per architecture.
		origs, instrs, err := p.stream(ctx, base, &variant{prog: base.Prog, prof: basePf}, archs, nil)
		if err != nil {
			return err
		}
		melds, meldInstrs, err := p.stream(ctx, meld, &variant{prog: meld.Prog, prof: meldPf}, archs, nil)
		if err != nil {
			return err
		}
		for j, arch := range archs {
			model, err := cost.ForArch(arch)
			if err != nil {
				return err
			}
			opts := core.Options{
				Algorithm: core.AlgoTryN, Model: model, Window: cfg.Window,
			}
			alignedBase, err := core.AlignProgram(base.Prog, basePf, opts)
			if err != nil {
				return err
			}
			alignedMeld, err := core.AlignProgram(meld.Prog, meldPf, opts)
			if err != nil {
				return err
			}

			row := MeldRow{
				Program: name, Arch: arch, Sites: sites,
				CPIOrig: metrics.RelativeCPI(origInstrs, instrs, metrics.BEPFromResult(origs[j])),
				CPIMeld: metrics.RelativeCPI(origInstrs, meldInstrs, metrics.BEPFromResult(melds[j])),
			}
			if row.CPIAligned, err = p.cpi(ctx, base, &variant{prog: alignedBase.Prog, prof: alignedBase.Prof}, arch, origInstrs); err != nil {
				return err
			}
			if row.CPIMeldAligned, err = p.cpi(ctx, meld, &variant{prog: alignedMeld.Prog, prof: alignedMeld.Prof}, arch, origInstrs); err != nil {
				return err
			}
			rows[i*len(archs)+j] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatMeldStudy renders the ablation.
func FormatMeldStudy(rows []MeldRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Program\tArch\tSites\tOrig\tAligned\tMeld\tMeld+Align\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t\n",
			r.Program, r.Arch, r.Sites, r.CPIOrig, r.CPIAligned, r.CPIMeld, r.CPIMeldAligned)
	}
	tw.Flush()
	return sb.String()
}
