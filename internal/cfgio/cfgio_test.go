package cfgio

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"balign/internal/asm"
	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/trace"
)

// demoJSON is a small but complete document: two procedures, every block
// kind, a mid-block call, exactly conserved weights.
const demoJSON = `{
  "name": "demo",
  "entry": "main",
  "procs": [
    {"name": "main", "entry_count": 100, "blocks": [
      {"label": "top", "size": 3, "kind": "cond",
       "edges": [{"to": 1, "weight": 600}, {"to": 2, "weight": 400, "taken": true}]},
      {"size": 3, "kind": "br", "calls": ["helper"], "edges": [{"to": 3, "weight": 600}]},
      {"size": 2, "kind": "fall", "edges": [{"to": 3, "weight": 400}]},
      {"size": 4, "kind": "cond",
       "edges": [{"to": 4, "weight": 100}, {"to": 0, "weight": 900, "taken": true}]},
      {"size": 1, "kind": "halt"}
    ]},
    {"name": "helper", "entry_count": 600, "blocks": [
      {"size": 2, "kind": "cond",
       "edges": [{"to": 1, "weight": 500}, {"to": 2, "weight": 100, "taken": true}]},
      {"size": 2, "kind": "ijump", "edges": [{"to": 2, "weight": 500}]},
      {"size": 1, "kind": "ret"}
    ]}
  ]
}`

func mustImport(t *testing.T, data string) (*ir.Program, *profile.Profile) {
	t.Helper()
	prog, pf, err := Import([]byte(data))
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	return prog, pf
}

func TestImportJSONBuildsProgramAndProfile(t *testing.T) {
	prog, pf, err := importJSON([]byte(demoJSON))
	if err != nil {
		t.Fatalf("importJSON: %v", err)
	}
	if prog.Name != "demo" || len(prog.Procs) != 2 {
		t.Fatalf("got program %q with %d procs", prog.Name, len(prog.Procs))
	}
	main := prog.Procs[0]
	if len(main.Blocks) != 5 {
		t.Fatalf("main has %d blocks, want 5", len(main.Blocks))
	}
	if main.Blocks[0].Label != "top" || main.Blocks[1].Label != ".b1" {
		t.Fatalf("labels = %q, %q", main.Blocks[0].Label, main.Blocks[1].Label)
	}
	// Block 1: size 3 = 1 nop filler + call + br.
	b1 := main.Blocks[1]
	if len(b1.Instrs) != 3 || b1.Instrs[0].Op != ir.OpNop || b1.Instrs[1].Op != ir.OpCall || b1.Instrs[2].Op != ir.OpBr {
		t.Fatalf("block 1 instrs = %+v", b1.Instrs)
	}
	pm := pf.Procs["main"]
	if pm == nil {
		t.Fatal("no main profile")
	}
	if pm.EntryCount != 100 {
		t.Fatalf("main entry count = %d", pm.EntryCount)
	}
	if bc := pm.Branches[0]; bc.Taken != 400 || bc.Fall != 600 {
		t.Fatalf("main block 0 branch = %+v", bc)
	}
	if w := pm.Weight(3, 0); w != 900 {
		t.Fatalf("edge 3->0 weight = %d", w)
	}
	// instrs omitted from the document: the deterministic estimate.
	const wantInstrs = 1000*3 + 600*3 + 400*2 + 1000*4 + 100*1 + 600*2 + 500*2 + 600*1
	if pf.Instrs != wantInstrs {
		t.Fatalf("estimated instrs = %d, want %d", pf.Instrs, wantInstrs)
	}
}

// TestImportExportRoundTripOracle is the suite-smoke importer oracle: both
// encodings re-import their own canonical export byte-stably, cross-encode
// consistently, and survive a round-trip through the asm text form. It runs
// over the in-package demo document and the committed real-CFG fixture (the
// pprof-derived Go runtime scan loop the cmd golden tests use).
func TestImportExportRoundTripOracle(t *testing.T) {
	t.Run("demo", func(t *testing.T) { roundTripOracle(t, demoJSON) })
	t.Run("fixture", func(t *testing.T) {
		data, err := os.ReadFile("../../testdata/cfg/go_scanobject.dot")
		if err != nil {
			t.Fatal(err)
		}
		roundTripOracle(t, string(data))
	})
}

func roundTripOracle(t *testing.T, doc string) {
	prog, pf := mustImport(t, doc)

	j1, err := ExportJSON(prog, pf)
	if err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	d1, err := ExportDOT(prog, pf)
	if err != nil {
		t.Fatalf("ExportDOT: %v", err)
	}

	// JSON canonical loop.
	prog2, pf2, err := Import(j1)
	if err != nil {
		t.Fatalf("re-import JSON: %v\n%s", err, j1)
	}
	j2, err := ExportJSON(prog2, pf2)
	if err != nil {
		t.Fatalf("re-export JSON: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON round-trip not byte-stable:\n--- first\n%s\n--- second\n%s", j1, j2)
	}

	// DOT canonical loop.
	prog3, pf3, err := Import(d1)
	if err != nil {
		t.Fatalf("re-import DOT: %v\n%s", err, d1)
	}
	d2, err := ExportDOT(prog3, pf3)
	if err != nil {
		t.Fatalf("re-export DOT: %v", err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("DOT round-trip not byte-stable:\n--- first\n%s\n--- second\n%s", d1, d2)
	}

	// Cross-encoding: the DOT-imported program exports the same JSON.
	j3, err := ExportJSON(prog3, pf3)
	if err != nil {
		t.Fatalf("ExportJSON of DOT import: %v", err)
	}
	if !bytes.Equal(j1, j3) {
		t.Fatalf("cross-encoding mismatch:\n--- via JSON\n%s\n--- via DOT\n%s", j1, j3)
	}

	// Round-trip through the asm text form. Assembly does not carry a
	// program name, so it is restored before comparing, like the kernel
	// builders do.
	text := prog.Format()
	prog4, err := asm.Assemble(text)
	if err != nil {
		t.Fatalf("Assemble(Format()): %v\n%s", err, text)
	}
	prog4.Name = prog.Name
	j4, err := ExportJSON(prog4, pf)
	if err != nil {
		t.Fatalf("ExportJSON after asm: %v", err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatalf("asm round-trip not byte-stable:\n--- direct\n%s\n--- via asm\n%s", j1, j4)
	}
	d4, err := ExportDOT(prog4, pf)
	if err != nil {
		t.Fatalf("ExportDOT after asm: %v", err)
	}
	if !bytes.Equal(d1, d4) {
		t.Fatalf("asm round-trip (DOT) not byte-stable")
	}
}

// TestImportedProgramWalks drives the imported program through the
// profile-faithful walker and checks the trace reflects the document's edge
// weights (the hot back-edge dominates).
func TestImportedProgramWalks(t *testing.T) {
	prog, pf := mustImport(t, demoJSON)
	walker := &trace.Walker{
		Prog:      prog,
		Model:     pf.Model(prog),
		Seed:      1,
		MaxInstrs: 50_000,
	}
	var conds, taken uint64
	instrs, runs, err := walker.Run(trace.SinkFunc(func(ev trace.Event) {
		if ev.Kind == ir.CondBr {
			conds++
			if ev.Taken {
				taken++
			}
		}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if instrs == 0 || runs == 0 {
		t.Fatalf("walker produced nothing: instrs=%d runs=%d", instrs, runs)
	}
	if conds == 0 {
		t.Fatal("no conditional events")
	}
	// Document taken rates: main/0 40%, main/3 90%, helper/0 ~17%; the trace
	// mix is dominated by the 90% loop branch, so overall well above 50%.
	rate := float64(taken) / float64(conds)
	if rate < 0.5 || rate > 0.9 {
		t.Fatalf("taken rate %.3f outside the profile-plausible band", rate)
	}
}

func TestImportErrors(t *testing.T) {
	// Each case is one malformed-input class; want is a substring of the
	// error. Cases marked wantLine expect a positioned DOT error; JSON cases
	// marked wantOffset expect a byte offset.
	cases := []struct {
		name       string
		in         string
		want       string
		wantElem   string
		wantLine   bool
		wantOffset bool
	}{
		{
			name:       "json syntax",
			in:         "{\n  \"procs\": [,\n}",
			want:       "invalid character",
			wantOffset: true,
		},
		{
			name:       "json wrong type",
			in:         `{"procs": [{"name": "m", "blocks": [{"size": "big", "kind": "halt"}]}]}`,
			want:       "cannot unmarshal",
			wantOffset: true,
		},
		{
			name:       "json unknown field",
			in:         `{"prox": 1}`,
			want:       "unknown field",
			wantOffset: true,
		},
		{
			name:       "json trailing garbage",
			in:         `{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "halt"}]}]} extra`,
			want:       "trailing data",
			wantOffset: true,
		},
		{
			name:       "json negative weight",
			in:         `{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "br", "edges": [{"to": 0, "weight": -5}]}]}]}`,
			want:       "cannot unmarshal",
			wantOffset: true,
		},
		{
			name: "no procs",
			in:   `{"procs": []}`,
			want: "no procedures",
		},
		{
			name:     "bad proc name",
			in:       `{"procs": [{"name": "bad name", "blocks": [{"size": 1, "kind": "halt"}]}]}`,
			want:     "invalid procedure name",
			wantElem: `proc "bad name"`,
		},
		{
			name: "duplicate proc",
			in: `{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "halt"}]},
			              {"name": "m", "blocks": [{"size": 1, "kind": "ret"}]}]}`,
			want:     "duplicate procedure",
			wantElem: `proc "m"`,
		},
		{
			name: "unknown entry",
			in:   `{"entry": "nope", "procs": [{"name": "m", "blocks": [{"size": 1, "kind": "halt"}]}]}`,
			want: `entry procedure "nope" not defined`,
		},
		{
			name:     "no blocks",
			in:       `{"procs": [{"name": "m", "blocks": []}]}`,
			want:     "no blocks",
			wantElem: `proc "m"`,
		},
		{
			name:     "unknown kind",
			in:       `{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "jump"}]}]}`,
			want:     `unknown block kind "jump"`,
			wantElem: `proc "m" block 0`,
		},
		{
			name:     "size too small",
			in:       `{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "halt", "calls": ["m"]}]}]}`,
			want:     "too small",
			wantElem: `proc "m" block 0`,
		},
		{
			name: "reserved label",
			in: `{"procs": [{"name": "m", "blocks": [
				{"label": ".b7", "size": 1, "kind": "fall", "edges": [{"to": 1, "weight": 1}]},
				{"size": 1, "kind": "halt"}]}]}`,
			want:     "reserved .bN form",
			wantElem: `proc "m" block 0`,
		},
		{
			name: "duplicate label",
			in: `{"procs": [{"name": "m", "blocks": [
				{"label": "x", "size": 1, "kind": "fall", "edges": [{"to": 1, "weight": 1}]},
				{"label": "x", "size": 1, "kind": "halt"}]}]}`,
			want: `duplicate label "x"`,
		},
		{
			name:     "undefined call",
			in:       `{"procs": [{"name": "m", "blocks": [{"size": 2, "kind": "halt", "calls": ["gone"]}]}]}`,
			want:     `undefined procedure "gone"`,
			wantElem: `proc "m" block 0`,
		},
		{
			name:     "edge out of range",
			in:       `{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "br", "edges": [{"to": 9, "weight": 1}]}]}]}`,
			want:     "out of range",
			wantElem: `proc "m" edge 0->9`,
		},
		{
			name: "taken flag on br",
			in:   `{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "br", "edges": [{"to": 0, "weight": 1, "taken": true}]}]}]}`,
			want: "taken flag on an edge of a br block",
		},
		{
			name: "cond missing taken edge",
			in: `{"procs": [{"name": "m", "blocks": [
				{"size": 1, "kind": "cond", "edges": [{"to": 1, "weight": 1}]},
				{"size": 1, "kind": "halt"}]}]}`,
			want:     "exactly one taken edge",
			wantElem: `proc "m" block 0`,
		},
		{
			name: "cond bad fall target",
			in: `{"procs": [{"name": "m", "blocks": [
				{"size": 1, "kind": "cond", "edges": [{"to": 2, "weight": 1}, {"to": 2, "weight": 1, "taken": true}]},
				{"size": 1, "kind": "fall", "edges": [{"to": 2, "weight": 0}]},
				{"size": 1, "kind": "halt"}]}]}`,
			want: "fall-through edge must target the next block",
		},
		{
			name: "cond last block",
			in: `{"procs": [{"name": "m", "blocks": [
				{"size": 1, "kind": "cond", "edges": [{"to": 0, "weight": 1, "taken": true}]}]}]}`,
			want: "cannot be the last block",
		},
		{
			name:     "ret with edges",
			in:       `{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "ret", "edges": [{"to": 0, "weight": 1}]}]}]}`,
			want:     "must have no edges",
			wantElem: `proc "m" block 0`,
		},
		{
			name: "duplicate edge",
			in: `{"procs": [{"name": "m", "blocks": [
				{"size": 1, "kind": "ijump", "edges": [{"to": 0, "weight": 1}, {"to": 0, "weight": 2}]}]}]}`,
			want: "duplicate edge",
		},
		{
			name: "unreachable block",
			in: `{"procs": [{"name": "m", "blocks": [
				{"size": 1, "kind": "halt"},
				{"size": 1, "kind": "ret"}]}]}`,
			want:     "unreachable",
			wantElem: `proc "m" block 1`,
		},
		{
			name: "weight not conserved",
			in: `{"procs": [{"name": "m", "entry_count": 100, "blocks": [
				{"size": 1, "kind": "cond", "edges": [{"to": 1, "weight": 5}, {"to": 1, "weight": 5, "taken": true}]},
				{"size": 1, "kind": "halt"}]}]}`,
			want:     "weight not conserved",
			wantElem: `proc "m" block 0`,
		},
		{
			name: "entry count mismatch",
			in: `{"procs": [
				{"name": "m", "entry_count": 10, "blocks": [{"size": 2, "kind": "halt", "calls": ["h"]}]},
				{"name": "h", "entry_count": 500, "blocks": [{"size": 1, "kind": "ret"}]}]}`,
			want:     "does not match weighted call-site total",
			wantElem: `proc "h"`,
		},
		{
			name:     "dot missing header",
			in:       `graph [entry="m"];`,
			want:     "digraph",
			wantLine: true,
		},
		{
			name: "dot unknown node attribute",
			in: "digraph \"d\" {\n" +
				"  subgraph \"cluster_m\" {\n" +
				"    \"m/0\" [kind=\"halt\", size=1, color=\"red\"];\n" +
				"  }\n}\n",
			want:     `unknown attribute "color"`,
			wantLine: true,
			wantElem: `proc "m" block 0`,
		},
		{
			name: "dot non-dense indices",
			in: "digraph \"d\" {\n" +
				"  subgraph \"cluster_m\" {\n" +
				"    \"m/0\" [kind=\"fall\", size=1];\n" +
				"    \"m/2\" [kind=\"halt\", size=1];\n" +
				"  }\n}\n",
			want:     "not dense",
			wantLine: true,
		},
		{
			name: "dot foreign node id",
			in: "digraph \"d\" {\n" +
				"  subgraph \"cluster_m\" {\n" +
				"    \"other/0\" [kind=\"halt\", size=1];\n" +
				"  }\n}\n",
			want:     "different procedure",
			wantLine: true,
		},
		{
			name: "dot bad weight",
			in: "digraph \"d\" {\n" +
				"  subgraph \"cluster_m\" {\n" +
				"    \"m/0\" [kind=\"br\", size=1];\n" +
				"    \"m/0\" -> \"m/0\" [weight=lots];\n" +
				"  }\n}\n",
			want:     `bad weight "lots"`,
			wantLine: true,
		},
		{
			name: "dot unterminated subgraph",
			in: "digraph \"d\" {\n" +
				"  subgraph \"cluster_m\" {\n" +
				"    \"m/0\" [kind=\"halt\", size=1];\n",
			want:     "unterminated subgraph",
			wantLine: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Import([]byte(tc.in))
			if err == nil {
				t.Fatalf("Import succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			var ce *Error
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not *cfgio.Error", err)
			}
			if tc.wantElem != "" && !strings.Contains(ce.Elem, tc.wantElem) {
				t.Fatalf("error elem %q does not contain %q (full: %v)", ce.Elem, tc.wantElem, err)
			}
			if tc.wantLine && ce.Line <= 0 {
				t.Fatalf("error has no line number: %v", err)
			}
			if tc.wantOffset && ce.Offset < 0 {
				t.Fatalf("error has no byte offset: %v", err)
			}
			if tc.wantOffset && ce.Line <= 0 {
				t.Fatalf("JSON decode error has no derived line: %v", err)
			}
		})
	}
}

// TestWeightSlackOption checks that sampled (slightly non-conserved)
// profiles import under the fixed slack and that a larger skew is
// rejected.
func TestWeightSlackOption(t *testing.T) {
	// Inflow 1000 vs outflow 1006: within 1% + 1.
	loose := `{"procs": [{"name": "m", "entry_count": 1000, "blocks": [
		{"size": 1, "kind": "cond", "edges": [{"to": 1, "weight": 500}, {"to": 1, "weight": 506, "taken": true}]},
		{"size": 1, "kind": "halt"}]}]}`
	if _, _, err := Import([]byte(loose)); err != nil {
		t.Fatalf("slack rejected a 0.6%% skew: %v", err)
	}
	// Inflow 1000 vs outflow 1200: rejected.
	broken := strings.Replace(loose, "506", "700", 1)
	if _, _, err := Import([]byte(broken)); err == nil {
		t.Fatal("slack accepted a 20% skew")
	}
}

// TestEmptyFallBlockRoundTrips pins the schema's one legal zero-size shape:
// a fall block with no calls, which is exactly what the aligner leaves
// behind when it removes a jump. The document must import to an empty
// ir.Block and survive both export encodings byte-stably.
func TestEmptyFallBlockRoundTrips(t *testing.T) {
	doc := `{"procs": [{"name": "m", "entry_count": 5, "blocks": [
		{"size": 0, "kind": "fall", "edges": [{"to": 1, "weight": 5}]},
		{"size": 1, "kind": "halt"}]}]}`
	prog, pf := mustImport(t, doc)
	if n := len(prog.Procs[0].Blocks[0].Instrs); n != 0 {
		t.Fatalf("empty fall block imported with %d instrs", n)
	}
	for _, export := range []struct {
		name string
		fn   func(*ir.Program, *profile.Profile) ([]byte, error)
	}{{"json", ExportJSON}, {"dot", ExportDOT}} {
		out, err := export.fn(prog, pf)
		if err != nil {
			t.Fatalf("%s export: %v", export.name, err)
		}
		prog2, pf2, err := Import(out)
		if err != nil {
			t.Fatalf("%s re-import: %v", export.name, err)
		}
		again, err := export.fn(prog2, pf2)
		if err != nil {
			t.Fatalf("%s re-export: %v", export.name, err)
		}
		if !bytes.Equal(out, again) {
			t.Errorf("%s export not byte-stable:\n got: %s\nwant: %s", export.name, again, out)
		}
	}
	// Zero size on a kind that needs a terminator slot stays an error, as
	// does an explicitly negative size.
	for _, bad := range []string{
		`{"procs": [{"name": "m", "blocks": [{"size": 0, "kind": "halt"}]}]}`,
		`{"procs": [{"name": "m", "blocks": [{"size": -1, "kind": "halt"}]}]}`,
	} {
		if _, _, err := Import([]byte(bad)); err == nil {
			t.Errorf("bad size accepted: %s", bad)
		}
	}
}
