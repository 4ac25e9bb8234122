package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"balign/internal/experiments"
	"balign/internal/predict"
	"balign/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// cfgFixture is the committed real-shaped CFG document (a simplified
// pprof-derived Go runtime scan loop) shared by the cmd-level golden tests.
const cfgFixture = "../../testdata/cfg/go_scanobject.dot"

// checkGolden compares got to testdata/golden/<name>, rewriting under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden (run with -update after intended changes)\n got: %s\nwant: %s",
			name, got, want)
	}
}

// TestGoldenCFGExperiments pins the full evaluation grid over the committed
// CFG fixture: with -cfg and no -programs the imported program is the whole
// workload set, and both the Table 2 attributes and the suite grid encoding
// must be byte-stable.
func TestGoldenCFGExperiments(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-cfg", cfgFixture, "table2", "suite"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cfg_experiments.txt", out.Bytes())
}

// TestGoldenStudies pins Table 2, Figure 4, the ablation and every
// extension study, in both kernel modes: each mode must reproduce the
// golden byte for byte, so the modes agree with each other too. The second
// case covers both ways the unroll study streams: a walker workload (ora)
// streams the unrolled program as a variant of the original, a VM workload
// (alvinn) runs it as a workload of its own. The third pins Tables 3 and 4
// over two programs of each class, so every class-average row is printed.
func TestGoldenStudies(t *testing.T) {
	cases := [][]string{
		{"-scale", "0.05", "table2", "fig4", "ablation", "penalty", "crosstrain", "unroll", "icache", "hints", "seeds", "meld"},
		{"-scale", "0.05", "-programs", "ora,alvinn", "unroll"},
		{"-scale", "0.05", "-programs", "ora,doduc,compress,li,db++,cfront", "table3", "table4"},
	}
	for _, mode := range []string{"flat", "ref"} {
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			var out, errBuf bytes.Buffer
			for _, args := range cases {
				if err := run(append([]string{"-kernel", mode}, args...), &out, &errBuf); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
			}
			checkGolden(t, "studies.txt", out.Bytes())
		})
	}
}

// TestGoldenCFGTable2 runs Table 2 alone over the committed CFG fixture: it
// must print exactly the Table 2 section that cfg_experiments.txt pins, so
// the row does not depend on which experiments share the run.
func TestGoldenCFGTable2(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-cfg", cfgFixture, "table2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "cfg_experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 4 || !bytes.HasPrefix(golden, out.Bytes()) {
		t.Errorf("table2 alone printed %d lines, not the Table 2 section of cfg_experiments.txt:\n%s", lines, out.String())
	}
}

// TestRunTable2 prints Table 2 for one named program: the heading, the
// column header and that program's row.
func TestRunTable2(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-programs", "ora", "-scale", "0.02", "table2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "Table 2") || !strings.Contains(lines[1], "%Taken") ||
		strings.Fields(lines[2])[0] != "ora" {
		t.Errorf("output malformed:\n%s", out.String())
	}
}

// TestRunTable2Report runs Table 2 alone with -report: the document carries
// the engine's counters and the table2 section alone, whose one row holds
// the numbers the table prints.
func TestRunTable2Report(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-programs", "ora", "-scale", "0.02", "-report", path, "table2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep runReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if rep.Tool != "baexp" || rep.Counters["sim.tasks"] == 0 {
		t.Errorf("report malformed: tool=%q counters=%v", rep.Tool, rep.Counters)
	}
	if got := sortedKeys(rep.Sections); !slices.Equal(got, []string{"table2"}) {
		t.Errorf("report sections %v; want table2 alone", got)
	}
	var rows []experiments.Table2Row
	if err := json.Unmarshal(rep.Sections["table2"], &rows); err != nil || len(rows) != 1 || rows[0].Program != "ora" {
		t.Fatalf("table2 section %s (%v); want the row of ora", rep.Sections["table2"], err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	row := strings.Fields(lines[len(lines)-1])
	if want := []string{"ora", strconv.FormatUint(rows[0].Attr.Instrs, 10)}; len(row) < 2 || !slices.Equal(row[:2], want) {
		t.Errorf("printed row %v; report row has %v", row, want)
	}
}

func TestRunTable1(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"table1"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Mispredicted") {
		t.Errorf("table1 output malformed:\n%s", out.String())
	}
}

func TestRunSmallExperiments(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-scale", "0.02", "-window", "5", "-programs", "ora",
		"table2", "fig2", "fig3"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2", "Figure 2", "Figure 3", "ora", "paper: 5 -> 3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// runReport is the decoded shape of a baexp -report document, under the
// stable field names the schema tests assert.
type runReport struct {
	Tool     string           `json:"tool"`
	WallNs   int64            `json:"wall_ns"`
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
	Spans    []struct {
		Name     string           `json:"name"`
		DurNs    int64            `json:"dur_ns"`
		Attrs    map[string]int64 `json:"attrs"`
		Children []struct {
			Name  string           `json:"name"`
			DurNs int64            `json:"dur_ns"`
			Attrs map[string]int64 `json:"attrs"`
		} `json:"children"`
	} `json:"spans"`
	Sections map[string]json.RawMessage `json:"sections"`
}

// gridKeys are the JSON keys of one grid row, a metrics.Summary of a cell
// whose variant was scored in the i-cache.
var gridKeys = []string{"program", "arch", "algo", "instrs", "bep", "events", "misfetches", "mispredicts",
	"cond", "cond_taken", "cond_correct", "ic_fetches", "ic_accesses", "ic_misses", "cpi", "fall_pct",
	"cond_accuracy", "ic_mpki"}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// reportFor runs a tiny suite with -report and decodes the resulting
// document, checking its engine and executor counts, its spans and its
// grid section.
func reportFor(t *testing.T) *runReport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errBuf bytes.Buffer
	args := []string{"-scale", "0.02", "-window", "5", "-programs", "ora",
		"-parallel", "2", "-report", path, "suite"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	rep := new(runReport)
	if err := json.Unmarshal(data, rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if rep.Tool != "baexp" || rep.WallNs <= 0 {
		t.Errorf("tool/wall_ns malformed: %q / %d", rep.Tool, rep.WallNs)
	}
	if rep.Counters["sim.tasks"] == 0 {
		t.Errorf("engine counters missing: %v", rep.Counters)
	}
	if rep.Counters["core.plan.tryn.ns"] == 0 || rep.Counters["core.plan.greedy.procs"] == 0 {
		t.Errorf("alignment timing counters missing: %v", rep.Counters)
	}
	if len(rep.Spans) == 0 {
		t.Fatal("no timing spans in report")
	}
	shards := 0
	for _, s := range rep.Spans {
		if s.Name != "sim.run" {
			t.Errorf("unexpected root span %q", s.Name)
		}
		if s.Attrs["busy_ns"] <= 0 {
			t.Errorf("sim.run span busy_ns = %d, want positive", s.Attrs["busy_ns"])
		}
		for _, c := range s.Children {
			shards++
			if _, ok := c.Attrs["queue_wait_ns"]; !ok {
				t.Errorf("shard span %q missing queue_wait_ns", c.Name)
			}
		}
	}
	if int64(shards) != rep.Counters["sim.tasks"] {
		t.Errorf("%d shard spans but sim.tasks = %d", shards, rep.Counters["sim.tasks"])
	}
	if n, ok := rep.Counters["sim.task_errors"]; ok {
		t.Errorf("sim.task_errors = %d, want none", n)
	}
	// The executor splits simulation cost into compile and run phases (so
	// per-consumer setup can't be misattributed to simulation time).
	if rep.Counters["sim.exec.events"] == 0 || rep.Counters["sim.exec.compile_ns"] == 0 || rep.Counters["sim.exec.run_ns"] == 0 ||
		rep.Counters["kernel.compiles"] == 0 || rep.Counters["kernel.run_ns"] == 0 {
		t.Errorf("executor/kernel counters missing: %v", rep.Counters)
	}
	// The grid is the only section: the full {program x arch x algo}
	// matrix, under snake_case keys.
	if len(rep.Sections) != 1 {
		t.Errorf("report sections %v; want the grid alone", sortedKeys(rep.Sections))
	}
	var grid []map[string]any
	if err := json.Unmarshal(rep.Sections["grid"], &grid); err != nil {
		t.Fatalf("grid section: %v", err)
	}
	if want := len(predict.AllArchs()) * len(experiments.Algos()); len(grid) != want {
		t.Errorf("grid rows = %d, want %d", len(grid), want)
	}
	wantKeys := slices.Clone(gridKeys)
	slices.Sort(wantKeys)
	for _, row := range grid {
		if keys := sortedKeys(row); !slices.Equal(keys, wantKeys) {
			t.Errorf("grid row keys %v, want %v", keys, gridKeys)
		}
		if cpi, _ := row["cpi"].(float64); row["program"] != "ora" || row["arch"] == "" || row["algo"] == "" || cpi <= 0 {
			t.Errorf("degenerate grid row: %v", row)
		}
	}
	return rep
}

// TestRunReportSchema is the run-report schema check `make report` relies
// on: a suite run with -report must emit one JSON document carrying the
// summary grid, per-shard timing spans, the engine's, the broadcast
// stage's and the executor's counters and the stream gauges, under the
// stable names asserted here.
func TestRunReportSchema(t *testing.T) {
	rep := reportFor(t)
	c, g := rep.Counters, rep.Gauges
	for _, name := range []string{"broadcasts", "batches", "events", "gen_ns", "arena_reuses"} {
		if c["sim.stream."+name] <= 0 {
			t.Errorf("sim.stream.%s = %d, want positive", name, c["sim.stream."+name])
		}
	}
	if g["sim.stream.peak_live_bytes"] == 0 {
		t.Errorf("stream gauges missing: %v", g)
	}
	for _, name := range []string{"sim.stream.live_buffers", "sim.stream.live_bytes"} {
		if n, ok := g[name]; !ok || n != 0 {
			t.Errorf("%s = %d (recorded %v); want recorded and drained to 0", name, n, ok)
		}
	}
	// Preparation folds ora's 16 variant keys into fewer distinct
	// variants, and the grid broadcasts each distinct variant once.
	total, distinct := rep.Counters["exp.variants.total"], rep.Counters["exp.variants.distinct"]
	if total != 16 || distinct >= total || rep.Counters["sim.stream.broadcasts"] != distinct {
		t.Errorf("variants: %d total, %d distinct, %d broadcasts; want 16 total, fewer distinct, one broadcast each",
			total, distinct, rep.Counters["sim.stream.broadcasts"])
	}
	// A stream cell is one result of a variant's kernel: one per distinct
	// (variant, architecture) pair. For ora at this scale no two variants of one
	// architecture fold together, so that adds up to every (architecture,
	// algorithm) cell.
	if want := int64(len(predict.AllArchs()) * len(experiments.Algos())); c["sim.exec.stream_cells"] != want {
		t.Errorf("sim.exec.stream_cells = %d, want %d", c["sim.exec.stream_cells"], want)
	}
	// Kernel time splits into the shared pass and one pass per
	// architecture class, and events split by class. Each batch times its
	// passes as consecutive laps and adds the laps to the total, so the
	// shared bucket and the classes of the registered architectures sum to
	// the totals exactly.
	classes := map[predict.Class]bool{}
	for _, a := range predict.AllArchs() {
		d, _ := predict.Lookup(a)
		classes[d.Class] = true
	}
	runNs, events := rep.Counters["kernel.run_ns.shared"], int64(0)
	if runNs <= 0 {
		t.Errorf("kernel.run_ns.shared %d; want positive", runNs)
	}
	for c := range classes {
		ns, ev := rep.Counters["kernel.run_ns."+c.String()], rep.Counters["kernel.events."+c.String()]
		if ns <= 0 || ev <= 0 {
			t.Errorf("class %s: kernel.run_ns %d, kernel.events %d; want both positive", c, ns, ev)
		}
		runNs += ns
		events += ev
	}
	if runNs != rep.Counters["kernel.run_ns"] || events != rep.Counters["kernel.events"] {
		t.Errorf("shared and per-class kernel counters sum to %d ns / %d events, totals are %d / %d",
			runNs, events, rep.Counters["kernel.run_ns"], rep.Counters["kernel.events"])
	}
}

// TestOneStreamerPerRun runs two experiments in one serial baexp run: one
// streamer serves both, so every broadcast after the run's first takes its
// one buffer from the arena, and the gauges are the whole run's. Each
// experiment attaches its own rows, so the report carries both sections.
func TestOneStreamerPerRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errBuf bytes.Buffer
	args := []string{"-scale", "0.05", "-programs", "ora,compress", "-parallel", "1", "-report", path, "suite", "table2"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep runReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	n, reuses := rep.Counters["sim.stream.broadcasts"], rep.Counters["sim.stream.arena_reuses"]
	if n < 2 || reuses != n-1 {
		t.Errorf("%d broadcasts reused %d buffers; want one for each broadcast after the run's first", n, reuses)
	}
	if got := sortedKeys(rep.Sections); !slices.Equal(got, []string{"grid", "table2"}) {
		t.Errorf("report sections %v; want grid and table2", got)
	}
	var rows []struct{ Program string }
	if err := json.Unmarshal(rep.Sections["table2"], &rows); err != nil || len(rows) != 2 ||
		rows[0].Program != "ora" || rows[1].Program != "compress" {
		t.Errorf("table2 section %s (%v); want the rows of ora and compress", rep.Sections["table2"], err)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf, &buf); err == nil {
		t.Error("no experiment id should error")
	}
	if err := run([]string{"bogus"}, &buf, &buf); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-programs", "nope", "table2"}, &buf, &buf); err == nil {
		t.Error("unknown program should error")
	}
}

// TestRunNoExperimentIsError runs with flags but no experiment id: the run
// must fail before any work and name what is missing.
func TestRunNoExperimentIsError(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-programs", "ora", "-scale", "0.02"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "experiment id is required") {
		t.Errorf("run with no experiment id: err = %v; want the missing id named", err)
	}
	if out.Len() != 0 {
		t.Errorf("run with no experiment id printed:\n%s", out.String())
	}
}

// TestRunUnknownProgramNamesAll checks the error for an unknown -programs
// entry: it lists every program a run can name, the suite and the extended
// families, so the error is the program listing.
func TestRunUnknownProgramNamesAll(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-programs", "nope", "table2"}, &buf, &buf)
	if err == nil {
		t.Fatal("unknown program should error")
	}
	for _, name := range workload.AllNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-program error does not name %s: %v", name, err)
		}
	}
}

// TestRunGroupsExpandAnywhere runs the group ids beside other ids: all and
// ext each expand in place wherever they appear, not only alone.
func TestRunGroupsExpandAnywhere(t *testing.T) {
	for _, tc := range []struct {
		ids      []string
		headings int
	}{
		{[]string{"table1", "ext"}, 1 + 7},
		{[]string{"all", "ext"}, 9 + 7},
	} {
		var out, errBuf bytes.Buffer
		args := append([]string{"-scale", "0.02", "-window", "5", "-programs", "sc"}, tc.ids...)
		if err := run(args, &out, &errBuf); err != nil {
			t.Fatalf("%v: %v", tc.ids, err)
		}
		var headings []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "== ") {
				headings = append(headings, line)
			}
		}
		if len(headings) != tc.headings || !strings.Contains(headings[0], "Table 1") ||
			!strings.Contains(headings[len(headings)-1], "branch elimination") {
			t.Errorf("%v: ran %d experiments, want %d from Table 1 to the meld study:\n%s",
				tc.ids, len(headings), tc.headings, strings.Join(headings, "\n"))
		}
	}
}

func TestRunAllPaperExperimentsWiring(t *testing.T) {
	// Exercise every experiment id end-to-end at tiny scale to guard the
	// CLI wiring (formatting, flag plumbing, the "all"/"ext" groups).
	var out, errBuf bytes.Buffer
	args := []string{"-scale", "0.02", "-window", "5", "-programs", "ora",
		"table1", "table3", "table4", "fig1", "fig4", "ablation"}
	// fig4 needs a C-suite program; ora is filtered out, leaving the rest.
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Table 1", "Table 3", "Table 4", "Figure 1", "Figure 4", "Ablations"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunExtGroupWiring(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-scale", "0.02", "-window", "5", "-programs", "compress",
		"penalty", "crosstrain", "unroll", "hints", "seeds"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"penalty", "cross-training", "unrolling", "hint sources", "seed robustness"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
