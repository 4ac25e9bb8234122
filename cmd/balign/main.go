// Command balign performs profile-guided branch alignment on an assembly
// program — the paper's OM-style link-time transformation. It reads a
// program and an edge profile (from batrace), or a single CFG document
// carrying both (JSON or DOT, see internal/cfgio), applies the selected
// algorithm and architecture cost model, and writes the transformed
// program as assembly or as a CFG document with the transferred profile.
//
// Usage:
//
//	balign -prog file.asm -profile file.prof [-algo tryn] [-arch btfnt]
//	       [-order hottest|btfnt] [-window 15] [-procorder] [-o out.asm] [-v]
//	balign -cfg prog.cfg.json [-emit json|dot|asm] [flags]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"balign/internal/asm"
	"balign/internal/cfgio"
	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/profile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "balign:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("balign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	progFile := fs.String("prog", "", "assembly file to transform (required unless -cfg)")
	profFile := fs.String("profile", "", "edge profile from batrace (required unless -cfg)")
	cfgFile := fs.String("cfg", "", "CFG document (JSON or DOT) carrying both program and profile")
	emit := fs.String("emit", "", "output encoding: asm (default) | json | dot (CFG with the transferred profile)")
	algo := fs.String("algo", "tryn", "alignment algorithm: orig | greedy | cost | tryn | exttsp")
	arch := fs.String("arch", "btfnt", "architecture cost model: "+strings.Join(predict.KnownArchNames(), " | "))
	order := fs.String("order", "hottest", "chain layout order: hottest | btfnt")
	window := fs.Int("window", core.DefaultWindow, "TryN window size")
	procOrder := fs.Bool("procorder", false, "also reorder whole procedures by the ExtTSP call-graph objective")
	out := fs.String("o", "", "output assembly file (default: stdout)")
	verbose := fs.Bool("v", false, "print rewrite statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var prog *ir.Program
	var pf *profile.Profile
	switch {
	case *cfgFile != "":
		if *progFile != "" || *profFile != "" {
			return fmt.Errorf("-cfg replaces both -prog and -profile")
		}
		data, err := os.ReadFile(*cfgFile)
		if err != nil {
			return err
		}
		prog, pf, err = cfgio.Import(data)
		if err != nil {
			return err
		}
	case *progFile != "" && *profFile != "":
		src, err := os.ReadFile(*progFile)
		if err != nil {
			return err
		}
		prog, err = asm.Assemble(string(src))
		if err != nil {
			return err
		}
		pfFile, err := os.Open(*profFile)
		if err != nil {
			return err
		}
		pf, err = profile.Read(pfFile)
		pfFile.Close()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -cfg, or both -prog and -profile, are required")
	}

	opts := core.Options{Algorithm: core.Algorithm(*algo), Window: *window}
	if !slices.Contains(core.Algorithms(), opts.Algorithm) {
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if opts.Algorithm == core.AlgoCost || opts.Algorithm == core.AlgoTryN {
		m, err := cost.ForArch(predict.ArchID(*arch))
		if err != nil {
			return err
		}
		opts.Model = m
	}
	switch *order {
	case "hottest":
		opts.Order = core.OrderHottest
	case "btfnt":
		opts.Order = core.OrderBTFNT
	default:
		return fmt.Errorf("unknown chain order %q", *order)
	}

	res, err := core.AlignProgram(prog, pf, opts)
	if err != nil {
		return err
	}
	if *procOrder {
		reordered, err := core.ReorderProcsExtTSP(res.Prog, res.Prof)
		if err != nil {
			return err
		}
		res.Prog = reordered
	}

	if *verbose {
		m := opts.Model
		if m == nil {
			m = cost.FallthroughModel{}
		}
		fmt.Fprintf(stderr, "jumps inserted: %d, removed: %d; branches inverted: %d; dynamic instruction delta: %+d\n",
			res.Stats.JumpsInserted, res.Stats.JumpsRemoved, res.Stats.BranchesInverted, res.Stats.DynInstrDelta)
		fmt.Fprintf(stderr, "layout cost under %s model: %.0f -> %.0f cycles\n",
			m.Name(), cost.ProgramCost(prog, pf, m), cost.ProgramCost(res.Prog, res.Prof, m))
	}

	var output []byte
	switch *emit {
	case "", "asm":
		output = []byte(res.Prog.Format())
	case "json":
		output, err = cfgio.ExportJSON(res.Prog, res.Prof)
	case "dot":
		output, err = cfgio.ExportDOT(res.Prog, res.Prof)
	default:
		return fmt.Errorf("unknown -emit encoding %q (want asm, json or dot)", *emit)
	}
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Fprintf(stdout, "%s", output)
		return nil
	}
	return os.WriteFile(*out, output, 0o644)
}
