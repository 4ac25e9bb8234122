package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balign/internal/experiments"
	"balign/internal/predict"
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
// (alvinn) runs it as a workload of its own.
func TestGoldenStudies(t *testing.T) {
	cases := [][]string{
		{"-scale", "0.05", "table2", "fig4", "ablation", "penalty", "crosstrain", "unroll", "icache", "hints", "seeds", "meld"},
		{"-scale", "0.05", "-programs", "ora,alvinn", "unroll"},
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
		Name     string `json:"name"`
		DurNs    int64  `json:"dur_ns"`
		Children []struct {
			Name  string           `json:"name"`
			DurNs int64            `json:"dur_ns"`
			Attrs map[string]int64 `json:"attrs"`
		} `json:"children"`
	} `json:"spans"`
	Sections struct {
		Engine struct {
			Tasks       uint64 `json:"tasks"`
			Errors      uint64 `json:"errors"`
			BusyNs      int64  `json:"busy_ns"`
			QueueWaitNs int64  `json:"queue_wait_ns"`
		} `json:"engine"`
		Stream struct {
			Broadcasts    uint64 `json:"broadcasts"`
			Batches       uint64 `json:"batches"`
			Events        uint64 `json:"events"`
			StallsNs      int64  `json:"stalls_ns"`
			GenNs         int64  `json:"gen_ns"`
			LiveBuffers   int64  `json:"live_buffers"`
			LiveBytes     uint64 `json:"live_bytes"`
			PeakLiveBytes uint64 `json:"peak_live_bytes"`
			ArenaReuses   uint64 `json:"arena_reuses"`
		} `json:"stream"`
		Executor struct {
			Mode        string `json:"mode"`
			StreamCells uint64 `json:"stream_cells"`
			Events      uint64 `json:"events"`
			CompileNs   int64  `json:"compile_ns"`
			RunNs       int64  `json:"run_ns"`
		} `json:"executor"`
		Grid []struct {
			Program string  `json:"Program"`
			Arch    string  `json:"Arch"`
			Algo    string  `json:"Algo"`
			CPI     float64 `json:"CPI"`
		} `json:"grid"`
	} `json:"sections"`
}

// reportFor runs a tiny suite with -report and decodes the resulting
// document, checking its engine, executor and grid sections.
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
		for _, c := range s.Children {
			shards++
			if _, ok := c.Attrs["queue_wait_ns"]; !ok {
				t.Errorf("shard span %q missing queue_wait_ns", c.Name)
			}
		}
	}
	eng := rep.Sections.Engine
	if uint64(shards) != eng.Tasks {
		t.Errorf("%d shard spans but engine reports %d tasks", shards, eng.Tasks)
	}
	if eng.BusyNs <= 0 || eng.Errors != 0 {
		t.Errorf("engine stats malformed: %+v", eng)
	}
	// The executor section must report the kernel mode and split simulation
	// cost into compile and run phases (so per-consumer setup can't be
	// misattributed to simulation time).
	ex := rep.Sections.Executor
	if ex.Mode != "flat" {
		t.Errorf("executor mode = %q, want flat default", ex.Mode)
	}
	if ex.Events == 0 || ex.CompileNs <= 0 || ex.RunNs <= 0 {
		t.Errorf("executor phase split malformed: %+v", ex)
	}
	if rep.Counters["sim.exec.compile_ns"] == 0 || rep.Counters["sim.exec.run_ns"] == 0 ||
		rep.Counters["kernel.compiles"] == 0 || rep.Counters["kernel.run_ns"] == 0 {
		t.Errorf("executor/kernel counters missing: %v", rep.Counters)
	}
	// The grid section must be the full {program x arch x algo} matrix.
	if want := len(predict.AllArchs()) * len(experiments.Algos()); len(rep.Sections.Grid) != want {
		t.Errorf("grid rows = %d, want %d", len(rep.Sections.Grid), want)
	}
	for _, row := range rep.Sections.Grid {
		if row.Program != "ora" || row.Arch == "" || row.Algo == "" || row.CPI <= 0 {
			t.Errorf("degenerate grid row: %+v", row)
		}
	}
	return rep
}

// TestRunReportSchema is the run-report schema check `make report` relies
// on: a suite run with -report must emit one JSON document carrying the
// summary grid, per-shard timing spans, engine stats, broadcast-stage stats
// and ring gauges, under the stable field names asserted here.
func TestRunReportSchema(t *testing.T) {
	rep := reportFor(t)
	if rep.Counters["sim.stream.broadcasts"] == 0 || rep.Counters["sim.stream.batches"] == 0 {
		t.Errorf("stream counters missing: %v", rep.Counters)
	}
	if rep.Gauges["sim.stream.peak_live_bytes"] == 0 {
		t.Errorf("stream ring gauges missing: %v", rep.Gauges)
	}
	if rep.Gauges["sim.stream.live_buffers"] != 0 || rep.Gauges["sim.stream.live_bytes"] != 0 {
		t.Errorf("stream ring not drained: %v", rep.Gauges)
	}
	ss := rep.Sections.Stream
	if ss.Broadcasts == 0 || ss.Batches == 0 || ss.Events == 0 || ss.PeakLiveBytes == 0 {
		t.Errorf("stream stats malformed: %+v", ss)
	}
	if ss.LiveBuffers != 0 || ss.LiveBytes != 0 {
		t.Errorf("stream ring leaked: %+v", ss)
	}
	if ss.GenNs == 0 {
		t.Error("streamed run recorded no generation time")
	}
	// ora's grid broadcasts 11 distinct variants through one streamer, so
	// every broadcast after the first draws its ring from the arena.
	if ss.ArenaReuses == 0 {
		t.Error("multi-variant streamed run reused no arena buffers")
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
	ex := rep.Sections.Executor
	if want := uint64(len(predict.AllArchs()) * len(experiments.Algos())); ex.StreamCells != want {
		t.Errorf("executor stream cells = %d, want %d", ex.StreamCells, want)
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
