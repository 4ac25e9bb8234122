// Command batrace executes a program and records its edge profile — the
// ATOM-style instrumentation step of the paper's workflow. The input is
// either an assembly file (executed on the VM) or a named suite benchmark
// (executed or walked, per its kind).
//
// Usage:
//
//	batrace -prog file.asm [-o file.prof] [-stats]
//	batrace -bench espresso [-scale 1.0] [-seed 0] [-o file.prof] [-stats]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"balign/internal/asm"
	"balign/internal/experiments"
	"balign/internal/metrics"
	"balign/internal/trace"
	"balign/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "batrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("batrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	progFile := fs.String("prog", "", "assembly file to execute")
	bench := fs.String("bench", "", "suite or extended benchmark name (an unknown name lists them all)")
	out := fs.String("o", "", "profile output file (default: stdout)")
	events := fs.String("events", "", "also write the raw break-event trace to this file")
	stats := fs.Bool("stats", false, "print summary statistics to stderr")
	scale := fs.Float64("scale", 1.0, "trace budget scale for suite benchmarks")
	seed := fs.Int64("seed", 0, "seed for suite benchmarks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*progFile == "") == (*bench == "") {
		return fmt.Errorf("exactly one of -prog or -bench is required")
	}

	w, err := open(*progFile, *bench, workload.Config{Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	pf, instrs, err := w.CollectProfile()
	if err != nil {
		return err
	}

	// -stats and -events read the original program's stream, which
	// repeats the training run's events in order: a VM program replays its
	// decision log, and a walk draws from its native model with the
	// training walk's seed.
	col := metrics.NewCollector()
	var sinks []trace.Sink
	if *stats {
		sinks = append(sinks, col)
	}
	var evWriter *trace.FileWriter
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		defer f.Close()
		evWriter = trace.NewFileWriter(f)
		sinks = append(sinks, evWriter)
	}
	if len(sinks) > 0 {
		if _, _, err := experiments.Stream(context.Background(), w, w.Prog, nil, nil, sinks...); err != nil {
			return err
		}
	}
	if evWriter != nil {
		if err := evWriter.Flush(); err != nil {
			return err
		}
	}

	if *stats {
		c := col.Counter()
		cond := c.CondTaken + c.CondFall
		if cond == 0 {
			cond = 1
		}
		fmt.Fprintf(stderr, "instructions traced: %d\n", instrs)
		fmt.Fprintf(stderr, "breaks: %d (%.2f%% of instructions)\n",
			c.Total, 100*float64(c.Total)/float64(instrs))
		fmt.Fprintf(stderr, "conditional taken rate: %.1f%%\n",
			100*float64(c.CondTaken)/float64(cond))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = pf.WriteTo(f)
		return err
	}
	_, err = pf.WriteTo(stdout)
	return err
}

// open builds the workload batrace traces: the assembly file progFile run
// on the VM, or the named suite benchmark.
func open(progFile, bench string, cfg workload.Config) (*workload.Workload, error) {
	if bench != "" {
		return workload.ByName(bench, cfg)
	}
	src, err := os.ReadFile(progFile)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		return nil, err
	}
	return workload.FromProgram(progFile, prog, nil, 0), nil
}
