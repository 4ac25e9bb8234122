// Command perfbench is balign's end-to-end and per-layer benchmark. It runs
// one workload for a fixed time, checks every output it times, and prints
// each metric by name with its unit, then one JSON result line:
//
//	perfbench --workload suite-align|suite-sim|serve-hot|serve-cold \
//	          --seed N --seconds S --trace 0|1
//
// Everything runs in this one process: the suite grids call
// experiments.Summaries directly, and the serve workloads start balignd's
// default serve.Server on 127.0.0.1:0 and drive it from two closed-loop
// client goroutines, which alternate every 100 ms between balignd and an
// in-process echo server that measures the host's speed. No child process
// is started. With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics. See README.md for the metric
// definitions and the layer-to-end-to-end map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one named measurement in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line. An operation is one grid on
// the suite workloads and one request on the serve workloads.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// Each workload repeats its set-up and reports the median as setup_s, so
// one slow set-up does not move the figure. A suite set-up takes
// milliseconds, so it repeats more often.
const (
	serveSetupReps = 3
	suiteSetupReps = 25
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&o.seed, "seed", 0, "seed for the workload's inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1

	var res *Result
	var err error
	switch {
	case suites[o.workload] != nil:
		res, err = runSuite(suites[o.workload], committedDigests[o.workload], o, stderr)
	case serveSpecs[o.workload] != nil:
		res, err = runServe(serveSpecs[o.workload], o)
	default:
		return fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return err
	}
	return writeResult(stdout, o, res)
}

func workloadNames() []string {
	var names []string
	for name := range suites {
		names = append(names, name)
	}
	for name := range serveSpecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeResult prints the run header (workload, seed, host), one line per
// metric, and the JSON result as the last line.
func writeResult(w io.Writer, o options, res *Result) error {
	bw := bufio.NewWriter(w)
	header, err := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds,
		"trace": o.trace, "host": hostInfo(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "run %s\n", header)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(bw, "metric %-28s %16.6f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	bw.Write(append(line, '\n'))
	return bw.Flush()
}

// hostInfo describes the machine the figures were measured on.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// untilDeadline reports whether the timed window opened at start is still
// open.
func untilDeadline(start time.Time, seconds int) bool {
	return time.Since(start) < time.Duration(seconds)*time.Second
}
