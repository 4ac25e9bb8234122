// Command benchserve produces BENCH_serve.json: the serving-layer
// benchmark document. It builds balignd and runs a single-node saturation
// sweep: baload's sweep schedule drives the daemon through rising target
// rates, and the per-slot achieved-vs-target curve shows the knee.
//
//	go run ./scripts/benchserve [-out BENCH_serve.json]
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"balign/internal/load"
)

type hostBlock struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"`
}

type slotPoint struct {
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	OK          uint64  `json:"ok"`
	Errors      uint64  `json:"errors"`
	MeanLatNs   int64   `json:"mean_lat_ns"`
}

type saturation struct {
	Description string              `json:"description"`
	Schedule    string              `json:"schedule"`
	Corpus      int                 `json:"corpus_entries"`
	Slots       []slotPoint         `json:"slots"`
	KneeRPS     float64             `json:"knee_rps"`
	Latency     load.LatencySummary `json:"latency"`
	CacheHits   uint64              `json:"cache_hits"`
	Requests    uint64              `json:"requests"`
	Unexpected  uint64              `json:"unexpected_errors"`
}

type doc struct {
	Description string     `json:"description"`
	Date        string     `json:"date"`
	Host        hostBlock  `json:"host"`
	Command     string     `json:"command"`
	Saturation  saturation `json:"saturation"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", err)
		os.Exit(1)
	}
}

// loadMix is the measurement mix: both endpoints, all three align
// encodings, no simulate-suite (one cold suite compute costs more than an
// entire smoke-scale slot and would turn the sweep into a suite benchmark).
func loadMix() []load.MixItem {
	return []load.MixItem{
		{Kind: load.KindAlignAsm, Weight: 2},
		{Kind: load.KindAlignCFGJSON, Weight: 1},
		{Kind: load.KindAlignCFGDOT, Weight: 1},
		{Kind: load.KindSimInline, Weight: 1},
	}
}

func run(args []string) error {
	out := "BENCH_serve.json"
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-out":
			i++
			if i >= len(args) {
				return fmt.Errorf("-out needs a path")
			}
			out = args[i]
		default:
			return fmt.Errorf("unknown flag %q", args[i])
		}
	}

	work, err := os.MkdirTemp("", "benchserve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin := filepath.Join(work, "balignd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/balignd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building balignd: %w", err)
	}

	corpus, err := load.BuildCorpus(7, 24, loadMix())
	if err != nil {
		return err
	}

	slotDur := 2 * time.Second
	sweepFrom, sweepStep, sweepTo := 2000.0, 2000.0, 18000.0

	d := &doc{
		Description: "Serving-layer benchmark: closed-loop saturation sweep against a single balignd (cmd/baload). Reproduce with `make bench-serve`.",
		Date:        time.Now().Format("2006-01-02"),
		Host: hostBlock{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
			Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
		},
		Command: "go run ./scripts/benchserve",
	}

	fmt.Fprintln(os.Stderr, "benchserve: saturation sweep")
	sweep := load.Sweep(sweepFrom, sweepStep, sweepTo, slotDur)
	rep, err := runAgainstDaemon(work, bin, sweep, corpus)
	if err != nil {
		return fmt.Errorf("saturation sweep: %w", err)
	}
	sat := saturation{
		Description: "Closed-loop sweep: each slot targets a higher request rate; achieved_rps tracks the target until the daemon saturates, then flattens at capacity (the knee). Mix: align asm/cfg-json/cfg-dot + inline simulate; cold suite computes excluded (they are a compute benchmark, not a serving one).",
		Schedule:    fmt.Sprintf("sweep %g..%g step %g, %s per slot", sweepFrom, sweepTo, sweepStep, slotDur),
		Corpus:      len(corpus.Entries),
		Latency:     rep.Latency,
		CacheHits:   rep.CacheHits,
		Requests:    rep.Requests,
		Unexpected:  rep.UnexpectedErrors,
	}
	for _, s := range rep.Slots {
		sat.Slots = append(sat.Slots, slotPoint{
			TargetRPS: s.TargetRPS, AchievedRPS: s.AchievedRPS,
			OK: s.OK, Errors: s.Errors, MeanLatNs: s.MeanLatNs,
		})
		// The knee: the highest slot whose achieved rate still reached 90%
		// of target.
		if s.AchievedRPS >= 0.9*s.TargetRPS && s.TargetRPS > sat.KneeRPS {
			sat.KneeRPS = s.TargetRPS
		}
	}
	d.Saturation = sat

	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchserve: wrote %s (knee %.0f rps)\n", out, d.Saturation.KneeRPS)
	return nil
}

// runAgainstDaemon boots balignd, runs the schedule against it in real
// mode, and drains it.
func runAgainstDaemon(work, bin string, sched load.Schedule, corpus *load.Corpus) (*load.Report, error) {
	addrFile := filepath.Join(work, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-timeout", "60s", "-drain", "30s")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(45 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	addr, err := waitForFile(addrFile, 20*time.Second)
	if err != nil {
		return nil, err
	}

	return load.Run(context.Background(), load.RunConfig{
		Schedule: sched,
		Corpus:   corpus,
		Doer:     load.NewHTTPDoer("http://"+addr, 90*time.Second),
		Clocks:   load.NewWallClocks(),
		Workers:  64,
		Seed:     corpus.Seed,
	})
}

func waitForFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if b, err := os.ReadFile(path); err == nil {
			if s := strings.TrimSpace(string(b)); s != "" {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("timed out waiting for %s", path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			name, value, ok := strings.Cut(line, ":")
			if ok && strings.TrimSpace(name) == "model name" {
				return strings.TrimSpace(value)
			}
		}
	}
	return runtime.GOARCH
}
