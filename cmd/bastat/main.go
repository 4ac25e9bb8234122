// Command bastat reports Table 2-style attributes for suite benchmarks:
// instructions traced, break density, branch-site quantiles, taken rate
// and the break-kind mix.
//
// Usage:
//
//	bastat -list
//	bastat -bench gcc [-scale 1.0] [-seed 0]
//	bastat -cfg prog.cfg.json
//	bastat -all [-scale 1.0] [-seed 0]
//
// With -report f the run additionally writes a JSON run report (timing
// spans, engine stats, counters, the measured attribute rows) to f; with
// -pprof addr it serves net/http/pprof and expvar on addr while the
// measurement runs. -kernel flat|ref selects the compiled flat simulation
// kernel (default) or the reference simulators. None of these flags change
// any measured output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"balign/internal/experiments"
	"balign/internal/obs"
	"balign/internal/sim"
	"balign/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bastat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bastat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list suite benchmark names")
	bench := fs.String("bench", "", "single benchmark to measure (suite or extended name)")
	all := fs.Bool("all", false, "measure the full suite (paper Table 2)")
	cfgPath := fs.String("cfg", "", "measure an imported CFG document (JSON or DOT) instead of a suite benchmark")
	scale := fs.Float64("scale", 1.0, "trace budget scale")
	seed := fs.Int64("seed", 0, "workload seed")
	parallel := fs.Int("parallel", 0, "concurrent measurement shards (0 = GOMAXPROCS, 1 = serial)")
	kernelMode := fs.String("kernel", "flat", "simulation executor: flat (compiled kernel) or ref (reference simulators)")
	report := fs.String("report", "", "write a JSON run report to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range workload.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	if _, err := sim.ParseKernelMode(*kernelMode); err != nil {
		return err
	}
	cfg := experiments.Config{
		Scale: *scale, Seed: *seed,
		Parallelism: *parallel, Kernel: *kernelMode,
	}
	switch {
	case *bench != "":
		cfg.Programs = []string{*bench}
		if *cfgPath != "" {
			cfg.CFG = []string{*cfgPath}
		}
	case *cfgPath != "":
		cfg.CFG = []string{*cfgPath}
	case *all:
	default:
		return fmt.Errorf("one of -list, -bench, -cfg or -all is required")
	}
	if *report != "" || *pprofAddr != "" {
		cfg.Obs = obs.New("bastat")
	}
	if *pprofAddr != "" {
		cfg.Obs.Publish("bastat")
		go func() {
			if err := obs.ListenAndServeDebug(*pprofAddr); err != nil {
				fmt.Fprintln(stderr, "bastat: pprof server:", err)
			}
		}()
	}
	rows, err := experiments.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.FormatTable2(rows))
	if *report != "" {
		cfg.Obs.Attach("table2", rows)
		f, err := os.Create(*report)
		if err != nil {
			return fmt.Errorf("writing run report: %w", err)
		}
		if err := cfg.Obs.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing run report: %w", err)
		}
		return f.Close()
	}
	return nil
}
