package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"balign/internal/predict"
	"balign/internal/workload"
)

// HintRow compares LIKELY hint sources on one program: conditional branch
// prediction accuracy with profile-derived hints versus compile-time
// heuristic hints. The paper chooses profiles because they are "much more
// accurate and simple to gather"; this experiment quantifies the gap.
type HintRow struct {
	Program      string
	ProfileAcc   float64 // conditional prediction accuracy, profile hints
	HeuristicAcc float64 // accuracy with compile-time heuristics
	BTFNTAcc     float64 // accuracy of plain BT/FNT for reference
	ProfileBEP   uint64
	HeuristicBEP uint64
}

// HintStudy measures hint-source accuracy on the original program layouts.
func HintStudy(programs []string, cfg Config) ([]HintRow, error) {
	if len(programs) == 0 {
		programs = []string{"espresso", "gcc", "li"}
	}
	rows := make([]HintRow, len(programs))
	err := runIndexed(cfg, "hints", programs, func(ctx context.Context, p simPath, i int) error {
		name := programs[i]
		w, err := workload.ByName(name, workload.Config{Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		pf, _, err := w.CollectProfile()
		if err != nil {
			return err
		}
		// LIKELY uses the profile's hints; the heuristic simulator decodes events.
		heuristicSim := predict.NewStaticSim(predict.NewHeuristicLikely(w.Prog))
		r, _, err := p.stream(ctx, w, &variant{prog: w.Prog, prof: pf},
			[]predict.ArchID{predict.ArchLikely, predict.ArchBTFNT}, nil, heuristicSim)
		if err != nil {
			return err
		}
		rp, rh, rb := r[0], heuristicSim.Result(), r[1]
		rows[i] = HintRow{
			Program:      name,
			ProfileAcc:   rp.CondAccuracy(),
			HeuristicAcc: rh.CondAccuracy(),
			BTFNTAcc:     rb.CondAccuracy(),
			ProfileBEP:   rp.BEP(predict.DefaultMisfetchPenalty, predict.DefaultMispredictPenalty),
			HeuristicBEP: rh.BEP(predict.DefaultMisfetchPenalty, predict.DefaultMispredictPenalty),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatHintStudy renders the hint comparison.
func FormatHintStudy(rows []HintRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Program\tprofile acc\theuristic acc\tBT/FNT acc\tprofile BEP\theuristic BEP\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%d\t%d\t\n",
			r.Program, r.ProfileAcc, r.HeuristicAcc, r.BTFNTAcc, r.ProfileBEP, r.HeuristicBEP)
	}
	tw.Flush()
	return sb.String()
}
