// Command baexp regenerates the paper's tables and figures.
//
// Usage:
//
//	baexp [flags] table1..table4|fig1..fig4|ablation|suite|all|
//	              penalty|crosstrain|unroll|icache|hints|seeds|meld|ext...
//
// The group ids all (table1 through ablation) and ext (penalty through
// meld, the extension studies) expand in place wherever they appear.
//
// Flags:
//
//	-scale f     trace budget scale (1.0 = ~1.5-2M instruction traces)
//	-seed n      workload seed
//	-window n    TryN window (default 15, the paper's Try15)
//	-programs s  comma-separated subset of the suite (extended family
//	             names like kmp, phased or sc-meld work here too)
//	-cfg s       comma-separated CFG documents (JSON or DOT, see
//	             internal/cfgio) imported as additional workloads
//	-parallel n  experiment shards to run concurrently (0 = GOMAXPROCS,
//	             1 = serial oracle path; output is identical either way)
//	-kernel s    simulation executor of every experiment: flat (default,
//	             the compiled struct-of-arrays kernel) or ref (the
//	             interface-dispatched reference simulators); output is
//	             identical either way
//	-v           log per-shard progress to stderr
//	-report f    write a JSON run report (timing spans, the engine, stream
//	             and executor counters and gauges, the suite summary grid,
//	             the Table 2 rows) to file f
//	-pprof addr  serve net/http/pprof and expvar on addr (e.g. :6060) for
//	             the duration of the run; /debug/vars includes the live
//	             run report under "baexp"
//
// Telemetry is observation-only: enabling -report or -pprof does not
// change any experiment output (the parallel-vs-serial oracle runs with
// telemetry on).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"balign/internal/experiments"
	"balign/internal/metrics"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "baexp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("baexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "trace budget scale")
	seed := fs.Int64("seed", 0, "workload seed")
	window := fs.Int("window", 0, "TryN window (0 = paper's 15)")
	programs := fs.String("programs", "", "comma-separated program subset (suite or extended names)")
	cfgPaths := fs.String("cfg", "", "comma-separated CFG documents (JSON or DOT) to import as workloads")
	parallel := fs.Int("parallel", 0, "concurrent experiment shards (0 = GOMAXPROCS, 1 = serial)")
	kernelMode := fs.String("kernel", "flat", "simulation executor: flat (compiled kernel) or ref (reference simulators)")
	verbose := fs.Bool("v", false, "log per-shard progress to stderr")
	report := fs.String("report", "", "write a JSON run report to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if _, err := sim.ParseKernelMode(*kernelMode); err != nil {
		return err
	}
	cfg := experiments.Config{
		Scale: *scale, Seed: *seed, Window: *window,
		Parallelism: *parallel, Kernel: *kernelMode,
	}
	if *verbose {
		cfg.Log = stderr
	}
	if *programs != "" {
		cfg.Programs = strings.Split(*programs, ",")
	}
	if *cfgPaths != "" {
		cfg.CFG = strings.Split(*cfgPaths, ",")
	}
	if *report != "" || *pprofAddr != "" {
		cfg.Obs = obs.New("baexp")
	}
	// One streamer serves every experiment of the run, so its arena carries
	// over and its gauges are the run's.
	cfg.Streamer = sim.NewStreamer(cfg.Obs)
	if *pprofAddr != "" {
		cfg.Obs.Publish("baexp")
		go func() {
			if err := obs.ListenAndServeDebug(*pprofAddr); err != nil {
				fmt.Fprintln(stderr, "baexp: pprof server:", err)
			}
		}()
	}

	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("an experiment id is required (table1..table4, fig1..fig4, ablation, suite, all; " +
			"penalty, crosstrain, unroll, icache, hints, seeds, meld, ext)")
	}
	var ids []string
	for _, id := range rest {
		switch id {
		case "all":
			ids = append(ids, "table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "ablation")
		case "ext":
			ids = append(ids, "penalty", "crosstrain", "unroll", "icache", "hints", "seeds", "meld")
		default:
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		if err := runOne(id, cfg, stdout); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	if *report != "" {
		if err := writeReport(cfg.Obs, *report); err != nil {
			return fmt.Errorf("writing run report: %w", err)
		}
	}
	return nil
}

// writeReport dumps the run's telemetry snapshot to path.
func writeReport(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runOne(id string, cfg experiments.Config, w io.Writer) error {
	switch id {
	case "table1":
		fmt.Fprintln(w, "== Table 1: branch cost model ==")
		fmt.Fprint(w, experiments.Table1())
	case "table2":
		fmt.Fprintln(w, "== Table 2: measured program attributes ==")
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatTable2(rows))
	case "table3":
		fmt.Fprintln(w, "== Table 3: relative CPI, static architectures ==")
		results, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatCPITable(results, predict.StaticArchs(), true))
	case "table4":
		fmt.Fprintln(w, "== Table 4: relative CPI, dynamic architectures ==")
		results, err := experiments.Table4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatCPITable(results, predict.DynamicArchs(), false))
	case "fig1":
		fmt.Fprintln(w, "== Figure 1: ESPRESSO elim_lowering fragment ==")
		results, err := experiments.Figure1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatFigure1(results))
	case "fig2":
		fmt.Fprintln(w, "== Figure 2: ALVINN input_hidden loop trick ==")
		r, err := experiments.Figure2(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cycles per loop iteration under FALLTHROUGH: %.2f -> %.2f (paper: 5 -> 3)\n",
			r.CyclesPerIterBefore, r.CyclesPerIterAfter)
		fmt.Fprintf(w, "jumps inserted: %d, branches inverted: %d\n", r.Stats.JumpsInserted, r.Stats.BranchesInverted)
	case "fig3":
		fmt.Fprintln(w, "== Figure 3: loop breaking (Greedy vs Try15) ==")
		rows, err := experiments.Figure3(cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s orig %.0f   greedy %.0f   try15 %.0f   (%.0f%% branch-cost reduction; paper: ~33%%)\n",
				r.Model, r.CostOrig, r.CostGreedy, r.CostTryN, 100*(1-r.CostTryN/r.CostOrig))
		}
	case "fig4":
		fmt.Fprintln(w, "== Figure 4: relative execution time, dual-issue Alpha model ==")
		rows, err := experiments.Figure4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatFigure4(rows))
	case "suite":
		fmt.Fprintln(w, "== Suite: full evaluation grid (stable encoding) ==")
		summaries, err := experiments.Summaries(cfg, predict.AllArchs())
		if err != nil {
			return err
		}
		fmt.Fprint(w, metrics.EncodeSummaries(summaries))
	case "ablation":
		fmt.Fprintln(w, "== Ablations: chain order, algorithm ladder, TryN window ==")
		rows, err := experiments.Ablation(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatAblation(rows))
	case "penalty":
		fmt.Fprintln(w, "== Extension: mispredict-penalty sensitivity (wide-issue argument) ==")
		prog := "compress"
		if len(cfg.Programs) > 0 {
			prog = cfg.Programs[0]
		}
		rows, err := experiments.PenaltySweep(prog, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatPenaltySweep(prog, rows))
	case "crosstrain":
		fmt.Fprintln(w, "== Extension: profile cross-training (train input != test input) ==")
		rows, err := experiments.CrossTraining(cfg.Programs, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatCrossTraining(rows))
	case "unroll":
		fmt.Fprintln(w, "== Extension: single-block loop unrolling (paper's ALVINN suggestion) ==")
		rows, err := experiments.UnrollStudy(cfg.Programs, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatUnrollStudy(rows))
	case "icache":
		fmt.Fprintln(w, "== Extension: instruction-cache locality (MPKI on a small I-cache) ==")
		rows, err := experiments.ICacheStudy(cfg.Programs, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatICacheStudy(rows))
	case "hints":
		fmt.Fprintln(w, "== Extension: LIKELY hint sources (profile vs compile-time heuristics) ==")
		rows, err := experiments.HintStudy(cfg.Programs, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatHintStudy(rows))
	case "seeds":
		fmt.Fprintln(w, "== Extension: seed robustness (gain across program instances) ==")
		rows, err := experiments.SeedSweep(cfg.Programs, 5, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatSeedSweep(rows))
	case "meld":
		fmt.Fprintln(w, "== Extension: alignment vs branch elimination (cmov if-conversion) ==")
		rows, err := experiments.MeldStudy(cfg.Programs, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatMeldStudy(rows))
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	fmt.Fprintln(w)
	return nil
}
