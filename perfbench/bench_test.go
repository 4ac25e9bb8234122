package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinySuite is a one-program grid small enough for unit tests.
var tinySuite = &suiteSpec{programs: []string{"ora"}, scale: 0.01}

// settleGoroutines waits until the goroutine count drops to want, or fails.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, started with %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// childProcesses lists the pids whose parent is this process.
func childProcesses(t *testing.T) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil || len(stats) == 0 {
		t.Skip("no /proc to list child processes")
	}
	self := strconv.Itoa(os.Getpid())
	var kids []int
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the process exited while we listed
		}
		// The command name is parenthesised and may hold spaces; the
		// parent pid is the second field after it.
		rest := string(data[bytes.LastIndexByte(data, ')')+1:])
		if f := strings.Fields(rest); len(f) > 1 && f[1] == self {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, pid)
		}
	}
	return kids
}

func TestServeRunLeavesNothingRunning(t *testing.T) {
	n0 := runtime.NumGoroutine()
	o := options{workload: "serve-hot", seed: 3, seconds: 1}
	res, err := runServe(serveSpecs["serve-hot"], o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	settleGoroutines(t, n0)

	// The same steps once more, keeping the address to dial after stop.
	env, err := setupServe(serveSpecs["serve-cold"], o.seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measureServe(env, serveSpecs["serve-cold"], o, []float64{0}); err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(env.d.url, "http://")
	if err := env.close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after stop", addr)
	}
	settleGoroutines(t, n0)
	if kids := childProcesses(t); len(kids) > 0 {
		t.Fatalf("child processes still running: %v", kids)
	}
}

func TestCorruptedSuiteReferenceFails(t *testing.T) {
	runs, err := runGrids(tinySuite, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gridDigest(tinySuite.config("ref", nil))
	if err != nil {
		t.Fatal(err)
	}
	if n := countMismatches(runs, want, io.Discard); n != 0 {
		t.Fatalf("%d grids differ from the reference-simulator digest", n)
	}
	corrupt := "0" + want[1:]
	if corrupt == want {
		corrupt = "1" + want[1:]
	}
	if n := countMismatches(runs, corrupt, io.Discard); n != len(runs) {
		t.Fatalf("corrupted reference: %d failures, want %d", n, len(runs))
	}
}

// flipped returns a copy of ref with one body changed.
func flipped(ref map[int][]byte, entry int) map[int][]byte {
	out := make(map[int][]byte, len(ref))
	for k, v := range ref {
		out[k] = v
	}
	out[entry] = append(append([]byte(nil), ref[entry]...), ' ')
	return out
}

func TestCorruptedServeReferenceFails(t *testing.T) {
	for _, name := range []string{"serve-hot", "serve-cold"} {
		t.Run(name, func(t *testing.T) {
			spec := serveSpecs[name]
			env, err := setupServe(spec, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer env.close()
			ls := loopSpec{
				pick:  func(i int) int { return i % len(env.entries) },
				check: func(_, status int, _ []byte) bool { return status == 200 },
				keep:  func(int) bool { return true },
			}
			if spec.hot {
				ls.keep = nil
			}
			loop, err := closedLoop(env, 1, ls)
			if err != nil {
				t.Fatal(err)
			}
			samples, kept := loop.samples, loop.kept
			idx := []int{int(samples[0].entry)}
			ref, _, err := referenceBodies(env.entries, idx)
			if err != nil {
				t.Fatal(err)
			}
			check := func(ref map[int][]byte) int { return checkCold(samples, kept, ref) }
			if spec.hot {
				check = func(ref map[int][]byte) int { return checkHot(samples[:1], env.warm, ref) }
			} else {
				kept = map[int][]byte{idx[0]: kept[idx[0]]}
			}
			if n := check(ref); n != 0 {
				t.Fatalf("%d failures against the true reference", n)
			}
			if n := check(flipped(ref, idx[0])); n == 0 {
				t.Fatal("a corrupted reference body produced no failure")
			}
		})
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	keys := func(seed int64) string {
		entries, err := uniqueEntries(seed, 32)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, e := range entries {
			sb.WriteString(e.Key)
		}
		return sb.String()
	}
	if keys(1) != keys(1) {
		t.Fatal("the same seed gave different corpus keys")
	}
	if keys(1) == keys(2) {
		t.Fatal("seeds 1 and 2 gave the same corpus keys")
	}
}

func TestTracedSuiteAttribution(t *testing.T) {
	want, err := gridDigest(tinySuite.config("", nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSuite(tinySuite, want, options{seconds: 1, trace: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("missing per-layer metric %s", d.name)
		}
	}
	if r := res.Metrics["sim.attributed_ratio"].Value; r < 0.95 || r > 1.05 {
		t.Errorf("sim.prep_s + sim.cells_s covers %.3f of the traced wall time", r)
	}
	if res.Metrics["core.tryn_s"].Value <= 0 || res.Metrics["kernel.ns_per_event.tagged"].Value <= 0 {
		t.Errorf("layer metrics not measured: %+v", res.Metrics)
	}
}

func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"--workload", "serve-hot", "--seed", "2", "--seconds", "1", "--trace", "0"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var ms map[string]Metric
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m, ok := ms[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v", d.name, m)
		}
	}
	if !strings.Contains(lines[0], `"seed":2`) {
		t.Errorf("seed not recorded in %q", lines[0])
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if err := run([]string{"--workload", "nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program reports %d", len(c.got), len(c.want))
		}
		for i, g := range c.got {
			if w := c.want[i]; g.Name != w.name || g.Unit != w.unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, program %s %s", i, g.Name, g.Unit, w.name, w.unit)
			}
		}
	}
}

func TestCommittedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both full suite grids on the reference simulators")
	}
	for name, spec := range suites {
		got, err := gridDigest(spec.config("ref", nil))
		if err != nil {
			t.Fatal(err)
		}
		if got != committedDigests[name] {
			t.Errorf("%s digest at seed %d is %s, committed %s", name, committedSeed, got, committedDigests[name])
		}
	}
}
