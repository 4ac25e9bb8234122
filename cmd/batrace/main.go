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
	"flag"
	"fmt"
	"io"
	"os"

	"balign/internal/asm"
	"balign/internal/metrics"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/vm"
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

	sinks := trace.MultiSink{}
	col := metrics.NewCollector()
	sinks = append(sinks, col)
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

	var pf *profile.Profile
	if *progFile != "" {
		src, err := os.ReadFile(*progFile)
		if err != nil {
			return err
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			return err
		}
		pcol := profile.NewCollector(prog)
		res, err := vm.New(prog).Run(sinks, pcol)
		if err != nil {
			return err
		}
		pf = pcol.Profile()
		pf.Instrs = res.Instrs
		col.Instrs = res.Instrs
	} else {
		w, err := workload.ByName(*bench, workload.Config{Scale: *scale, Seed: *seed})
		if err != nil {
			return err
		}
		pcol := profile.NewCollector(w.Prog)
		instrs, err := w.Run(w.Prog, nil, sinks, pcol)
		if err != nil {
			return err
		}
		pf = pcol.Profile()
		pf.Instrs = instrs
		col.Instrs = instrs
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
		fmt.Fprintf(stderr, "instructions traced: %d\n", col.Instrs)
		fmt.Fprintf(stderr, "breaks: %d (%.2f%% of instructions)\n",
			c.Total, 100*float64(c.Total)/float64(col.Instrs))
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
	_, err := pf.WriteTo(stdout)
	return err
}
