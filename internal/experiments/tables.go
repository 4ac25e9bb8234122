package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"balign/internal/cost"
	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/workload"
)

// Table1 renders the paper's Table 1: the branch cost model in cycles.
func Table1() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Branch\tCost (cycles)")
	fmt.Fprintf(tw, "Unconditional branch\t%.0f\t(instruction + misfetch)\n", cost.CyclesUncond)
	fmt.Fprintf(tw, "Correctly predicted fall-through\t%.0f\t(instruction)\n", cost.CyclesFall)
	fmt.Fprintf(tw, "Correctly predicted taken\t%.0f\t(instruction + misfetch)\n", cost.CyclesTakenPred)
	fmt.Fprintf(tw, "Mispredicted\t%.0f\t(instruction + mispredict)\n", cost.CyclesMispredict)
	tw.Flush()
	return sb.String()
}

// Table2Row is one program's measured attributes (paper Table 2).
type Table2Row struct {
	Program string
	Class   workload.Class
	Attr    metrics.Attributes
}

// Table2 traces every program in the configured suite and measures its
// attributes. The rows are attached to cfg.Obs as the "table2" report
// section.
func Table2(cfg Config) ([]Table2Row, error) {
	ws, err := cfg.workloads()
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(ws))
	for i, w := range ws {
		labels[i] = w.Name
	}
	rows := make([]Table2Row, len(ws))
	err = runIndexed(cfg, "table2", labels, func(ctx context.Context, p simPath, i int) error {
		w := ws[i]
		col := metrics.NewCollector()
		_, instrs, err := p.stream(ctx, w, &variant{prog: w.Prog}, nil, nil, col)
		if err != nil {
			return fmt.Errorf("table2: %s: %w", w.Name, err)
		}
		col.Instrs = instrs
		rows[i] = Table2Row{Program: w.Name, Class: w.Class, Attr: col.Attributes(w.Prog)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg.Obs.Attach("table2", rows)
	return rows, nil
}

// FormatTable2 renders Table 2 rows in the paper's column layout.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "Program\tInsns\t%%Breaks\tQ-50\tQ-90\tQ-99\tQ-100\tStatic\t%%Taken\t%%CBr\t%%IJ\t%%Br\t%%Call\t%%Ret\t\n")
	for _, r := range rows {
		a := r.Attr
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
			r.Program, a.Instrs, a.PctBreaks, a.Q50, a.Q90, a.Q99, a.Q100,
			a.StaticSites, a.PctTaken, a.PctCBr, a.PctIJ, a.PctBr, a.PctCall, a.PctRet)
	}
	tw.Flush()
	return sb.String()
}

// Table3 evaluates the static prediction architectures (paper Table 3):
// relative CPI under FALLTHROUGH, BT/FNT and LIKELY for the original,
// Greedy-aligned and Try15-aligned program, plus fall-through percentages.
// The rows are the grid's, then each class's average rows.
func Table3(cfg Config) ([]metrics.Summary, error) {
	return evaluateSuite(cfg, predict.StaticArchs())
}

// Table4 evaluates the dynamic prediction architectures (paper Table 4).
func Table4(cfg Config) ([]metrics.Summary, error) {
	return evaluateSuite(cfg, predict.DynamicArchs())
}

func evaluateSuite(cfg Config, archs []predict.ArchID) ([]metrics.Summary, error) {
	ws, err := cfg.workloads()
	if err != nil {
		return nil, err
	}
	// The engine shards the whole {program x arch x algo} grid; rows come
	// back in suite order regardless of parallelism.
	rows, err := evaluatePrograms(ws, archs, cfg)
	if err != nil {
		return nil, err
	}
	// Per-class averages, as the paper prints.
	n := len(archs) * len(cfg.algos())
	for _, class := range []workload.Class{workload.SPECfp, workload.SPECint, workload.Other} {
		var members [][]metrics.Summary
		for i, w := range ws {
			if w.Class == class {
				members = append(members, rows[i*n:(i+1)*n])
			}
		}
		if len(members) > 0 {
			rows = append(rows, ClassAverage("avg-"+string(class), members)...)
		}
	}
	return rows, nil
}

// ClassAverage returns the paper's per-group average rows, named program.
// Each of programs holds one program's rows in one cell order, and each
// average row's CPI, FallPct and CondAccuracy are the arithmetic means of
// its cell over them.
func ClassAverage(program string, programs [][]metrics.Summary) []metrics.Summary {
	avg := make([]metrics.Summary, len(programs[0]))
	for i, r := range programs[0] {
		a := metrics.Summary{Program: program, Arch: r.Arch, Algo: r.Algo}
		for _, rows := range programs {
			a.CPI += rows[i].CPI
			a.FallPct += rows[i].FallPct
			a.CondAccuracy += rows[i].CondAccuracy
		}
		n := float64(len(programs))
		a.CPI /= n
		a.FallPct /= n
		a.CondAccuracy /= n
		avg[i] = a
	}
	return avg
}

// programBlocks splits rows into runs of one program's rows.
func programBlocks(rows []metrics.Summary) [][]metrics.Summary {
	var out [][]metrics.Summary
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && rows[n].Program == rows[0].Program {
			n++
		}
		out = append(out, rows[:n])
		rows = rows[n:]
	}
	return out
}

// cell returns block's row for arch and algo, or the zero row.
func cell(block []metrics.Summary, arch predict.ArchID, algo Algo) metrics.Summary {
	for _, r := range block {
		if r.Arch == string(arch) && r.Algo == string(algo) {
			return r
		}
	}
	return metrics.Summary{}
}

// algoHeading maps an algorithm to its table-column heading.
var algoHeading = map[Algo]string{
	AlgoOrig:   "Orig",
	AlgoGreedy: "Greedy",
	AlgoCost:   "Cost",
	AlgoTry:    "Try15",
	AlgoExtTSP: "ExtTSP",
}

// FormatCPITable renders Table 3/4-style rows: one line per program, an
// arch x algorithm grid of relative CPI columns (one column per entry of
// Algos()), and (when withFallPct) the fall-through percentage columns.
func FormatCPITable(rows []metrics.Summary, archs []predict.ArchID, withFallPct bool) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 1, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "Program\t")
	for _, arch := range archs {
		for _, algo := range Algos() {
			fmt.Fprintf(tw, "%s:%s\t", arch, algoHeading[algo])
		}
	}
	if withFallPct {
		fmt.Fprintf(tw, "%%FT:Orig\t%%FT:Greedy\t")
		for _, arch := range archs {
			fmt.Fprintf(tw, "%%FT:Try(%s)\t", arch)
		}
	}
	fmt.Fprintln(tw)
	for _, block := range programBlocks(rows) {
		fmt.Fprintf(tw, "%s\t", block[0].Program)
		for _, arch := range archs {
			for _, algo := range Algos() {
				fmt.Fprintf(tw, "%.3f\t", cell(block, arch, algo).CPI)
			}
		}
		if withFallPct {
			first := archs[0]
			fmt.Fprintf(tw, "%.0f\t%.0f\t", cell(block, first, AlgoOrig).FallPct, cell(block, first, AlgoGreedy).FallPct)
			for _, arch := range archs {
				fmt.Fprintf(tw, "%.0f\t", cell(block, arch, AlgoTry).FallPct)
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return sb.String()
}
