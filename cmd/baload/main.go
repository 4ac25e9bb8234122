// Command baload is the closed-loop load generator for balignd. It drives
// a piecewise-constant RPS schedule over a seeded deterministic request
// corpus covering every request encoding the daemon accepts, against the
// daemon at -base on the wall clock, records log-bucketed latency
// histograms, and emits a stable JSON report.
//
// Usage:
//
//	baload [-base http://127.0.0.1:8421]
//	       [-schedule constant|ramp|sweep|burst] [-rps 50] [-rps-max 0]
//	       [-rps-step 0] [-slot 2s] [-duration 10s] [-workers 16]
//	       [-mix align-asm=40,simulate-suite=10,...] [-corpus 32] [-seed 1]
//	       [-timeout 30s] [-report -] [-min-rps 0] [-max-unexpected -1]
//
// A saturation sweep is one schedule: -schedule sweep steps the target
// rate from -rps by -rps-step up to -rps-max, -slot per step, and the
// report's per-slot achieved_rps bends below target_rps at the knee.
//
// Exit status is nonzero if the run fails, if achieved RPS falls below
// -min-rps, or if unexpected errors (non-200 excluding 429/503/504
// backpressure) exceed -max-unexpected — the gates CI's serve smoke uses.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"balign/internal/load"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "baload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("baload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "http://127.0.0.1:8421", "target base URL")
	schedule := fs.String("schedule", "constant", "constant | ramp | sweep | burst")
	rps := fs.Float64("rps", 50, "base request rate")
	rpsMax := fs.Float64("rps-max", 0, "peak rate for ramp/sweep/burst (0 = kind default)")
	rpsStep := fs.Float64("rps-step", 0, "sweep step (0 = -rps)")
	slot := fs.Duration("slot", 2*time.Second, "slot length for ramp/sweep/burst")
	duration := fs.Duration("duration", 10*time.Second, "total schedule length (constant/ramp/burst)")
	workers := fs.Int("workers", 16, "closed-loop worker count")
	mixSpec := fs.String("mix", "", "request mix as kind=weight,... (default: realistic align-heavy mix)")
	corpusSize := fs.Int("corpus", 32, "distinct requests in the corpus")
	seed := fs.Int64("seed", 1, "corpus + plan seed")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	report := fs.String("report", "-", "report path (- = stdout)")
	minRPS := fs.Float64("min-rps", 0, "fail if achieved RPS is below this")
	maxUnexpected := fs.Int64("max-unexpected", -1, "fail if unexpected errors exceed this (-1 = no gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mix, err := load.ParseMix(*mixSpec)
	if err != nil {
		return err
	}
	sched, err := load.ParseSchedule(*schedule, *rps, *rpsMax, *rpsStep, *slot, *duration)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "baload: building corpus (%d entries, seed %d)\n", *corpusSize, *seed)
	corpus, err := load.BuildCorpus(*seed, *corpusSize, mix)
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "baload: %s schedule, %.0fs, %d workers against %s\n",
		*schedule, sched.Duration().Seconds(), *workers, *base)
	rep, err := load.Run(context.Background(), load.RunConfig{
		Schedule: sched,
		Corpus:   corpus,
		Doer:     load.NewHTTPDoer(strings.TrimRight(*base, "/"), *timeout),
		Workers:  *workers,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}
	out, err := rep.JSON()
	if err != nil {
		return err
	}

	if *report == "-" {
		if _, err := stdout.Write(out); err != nil {
			return err
		}
	} else if err := os.WriteFile(*report, out, 0o644); err != nil {
		return err
	}

	fmt.Fprintf(stderr, "baload: %d requests, %.1f rps achieved, %d ok, %d cache hits, %d unexpected errors\n",
		rep.Requests, rep.AchievedRPS, rep.OK, rep.CacheHits, rep.UnexpectedErrors)
	if *minRPS > 0 && rep.AchievedRPS < *minRPS {
		return fmt.Errorf("achieved %.1f rps below the -min-rps %.1f gate", rep.AchievedRPS, *minRPS)
	}
	if *maxUnexpected >= 0 && rep.UnexpectedErrors > uint64(*maxUnexpected) {
		return fmt.Errorf("%d unexpected errors over the -max-unexpected %d gate",
			rep.UnexpectedErrors, *maxUnexpected)
	}
	return nil
}
