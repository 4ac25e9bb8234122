package cfgio

import (
	"bytes"
	"errors"
	"testing"
)

// checkImported asserts the fuzz invariants on a successful import: the
// program validates, and the canonical export re-imports and re-exports
// byte-identically in both encodings.
func checkImported(t *testing.T, data []byte) {
	t.Helper()
	prog, pf, err := Import(data)
	if err != nil {
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("import error is %T, not *cfgio.Error: %v", err, err)
		}
		return
	}
	if prog == nil || pf == nil {
		t.Fatal("nil program/profile with nil error")
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("imported program fails validation: %v", err)
	}
	j1, err := ExportJSON(prog, pf)
	if err != nil {
		t.Fatalf("ExportJSON of imported program: %v", err)
	}
	prog2, pf2, err := Import(j1)
	if err != nil {
		t.Fatalf("canonical JSON export does not re-import: %v\n%s", err, j1)
	}
	j2, err := ExportJSON(prog2, pf2)
	if err != nil {
		t.Fatalf("re-export JSON: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON export not byte-stable:\n--- first\n%s\n--- second\n%s", j1, j2)
	}
	d1, err := ExportDOT(prog, pf)
	if err != nil {
		t.Fatalf("ExportDOT of imported program: %v", err)
	}
	prog3, pf3, err := Import(d1)
	if err != nil {
		t.Fatalf("canonical DOT export does not re-import: %v\n%s", err, d1)
	}
	d2, err := ExportDOT(prog3, pf3)
	if err != nil {
		t.Fatalf("re-export DOT: %v", err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("DOT export not byte-stable:\n--- first\n%s\n--- second\n%s", d1, d2)
	}
}

// FuzzImportCFG throws arbitrary bytes at the JSON importer (and, via
// auto-detection, anything that does not look like JSON at the DOT parser):
// malformed documents must fail with a positioned *cfgio.Error, never panic,
// and anything that imports must round-trip import→export→import
// byte-identically.
func FuzzImportCFG(f *testing.F) {
	f.Add([]byte(demoJSON))
	f.Add([]byte(`{"procs": [{"name": "m", "blocks": [{"size": 1, "kind": "halt"}]}]}`))
	f.Add([]byte(`{"name": "x", "mem_words": 64, "entry": "m", "instrs": 42,
		"procs": [{"name": "m", "entry_count": 7, "blocks": [
		{"label": "go", "size": 3, "kind": "cond",
		 "edges": [{"to": 1, "weight": 3}, {"to": 1, "weight": 4, "taken": true}]},
		{"size": 2, "kind": "ijump", "edges": [{"to": 0, "weight": 6}, {"to": 2, "weight": 1}]},
		{"size": 1, "kind": "halt"}]}]}`))
	f.Add([]byte(`{"procs": []}`))
	f.Add([]byte(`{"procs": [{"name": "m", "blocks": [{"size": -1, "kind": "halt"}]}]}`))
	f.Add([]byte(`{"prox": 1}`))
	f.Add([]byte("{\"procs\": [,\n}"))
	f.Add([]byte("\x00\x01{ garbage \xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkImported(t, data)
	})
}

// FuzzImportDOT drives the DOT parser directly with arbitrary text under
// the same never-panic / positioned-error / byte-stable-round-trip
// invariants.
func FuzzImportDOT(f *testing.F) {
	f.Add("digraph \"d\" {\n  subgraph \"cluster_m\" {\n    \"m/0\" [kind=\"halt\", size=1];\n  }\n}\n")
	f.Add("digraph \"demo\" {\n" +
		"  graph [mem_words=1024, entry=\"m\", instrs=99];\n" +
		"  subgraph \"cluster_m\" {\n" +
		"    label=\"m\";\n" +
		"    entry_count=5;\n" +
		"    \"m/0\" [kind=\"cond\", size=2, label=\"top\"];\n" +
		"    \"m/0\" -> \"m/1\" [weight=2];\n" +
		"    \"m/0\" -> \"m/2\" [weight=3, taken=true];\n" +
		"    \"m/1\" [kind=\"fall\", size=1];\n" +
		"    \"m/1\" -> \"m/2\" [weight=2];\n" +
		"    \"m/2\" [kind=\"halt\", size=1];\n" +
		"  }\n}\n")
	f.Add("digraph x {\n}\n")
	f.Add("digraph \"d\" {\n  subgraph \"cluster_m\" {\n    \"m/0\" [kind=\"br\", size=1];\n    \"m/0\" -> \"m/0\" [weight=1];\n  }\n}\n")
	f.Add("graph [entry=\"m\"];\n")
	f.Add("digraph \"d\" {\n  subgraph \"cluster_m\" {\n    \"m/2\" [kind=\"halt\", size=1];\n  }\n}\n")
	f.Add("// comment only\n")
	f.Add("digraph \"\xff\" {\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, pf, err := importDOT([]byte(src))
		if err != nil {
			var ce *Error
			if !errors.As(err, &ce) {
				t.Fatalf("import error is %T, not *cfgio.Error: %v", err, err)
			}
			return
		}
		d1, err := ExportDOT(prog, pf)
		if err != nil {
			t.Fatalf("ExportDOT: %v", err)
		}
		prog2, pf2, err := importDOT(d1)
		if err != nil {
			t.Fatalf("canonical DOT export does not re-import: %v\n%s", err, d1)
		}
		d2, err := ExportDOT(prog2, pf2)
		if err != nil {
			t.Fatalf("re-export DOT: %v", err)
		}
		if !bytes.Equal(d1, d2) {
			t.Fatalf("DOT export not byte-stable:\n--- first\n%s\n--- second\n%s", d1, d2)
		}
	})
}
