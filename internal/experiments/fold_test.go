package experiments

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"testing"

	"balign/internal/predict"
	"balign/internal/trace"
	"balign/internal/workload"
)

// TestFoldMatchesDigest is the oracle for preparation's fold of equal
// variants: newEvalUnit must fold each variant key into exactly the first
// key in first-need order whose digest of Format() text, profile text and
// walk kind is the same, over every suite program and over the benchmark's
// two grids at their own scales. The distinct counts pin how much the grid
// is spared. The test prepares units only; it streams nothing.
func TestFoldMatchesDigest(t *testing.T) {
	grids := []struct {
		name            string
		scale           float64
		programs        []string
		total, distinct int
	}{
		{"suite", fastCfg().Scale, workload.Names(), 384, 221},
		{"suite-sim", 3.0, []string{"compress", "li", "sc", "eqntott", "tomcatv", "db++", "alvinn"}, 112, 35},
		{"suite-align", 0.1, []string{"ora", "compress", "espresso", "db++", "doduc", "li"}, 96, 46},
	}
	archs := predict.AllArchs()
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			total, distinct := 0, 0
			for _, name := range g.programs {
				w, err := workload.ByName(name, workload.Config{Scale: g.scale})
				if err != nil {
					t.Fatalf("ByName(%s): %v", name, err)
				}
				u, err := newEvalUnit(w, archs, Config{Scale: g.scale})
				if err != nil {
					t.Fatalf("%s: newEvalUnit: %v", name, err)
				}
				assertFoldMatchesDigest(t, u, archs)
				total += u.totalKeys
				distinct += len(u.keys)
			}
			if total != g.total || distinct != g.distinct {
				t.Errorf("%d variant keys fold to %d distinct, want %d to %d", total, distinct, g.total, g.distinct)
			}
		})
	}
}

// assertFoldMatchesDigest recovers each pre-fold key's fold target from
// the specs it contributed and checks it against the digest grouping.
func assertFoldMatchesDigest(t *testing.T, u *evalUnit, archs []predict.ArchID) {
	t.Helper()
	into := map[string]string{} // pre-fold key -> the distinct key holding its cells
	cells := 0
	for _, key := range u.keys {
		for _, spec := range u.specs[key] {
			k := variantKey(spec.arch, spec.algo)
			if got, ok := into[k]; ok && got != key {
				t.Errorf("%s/%s: cells split between %s and %s", u.w.Name, k, got, key)
			}
			into[k] = key
			cells++
		}
	}
	if want := len(archs) * len(Algos()); cells != want || len(u.specs) != len(u.keys) {
		t.Errorf("%s: %d cells under %d spec lists for %d keys, want %d cells, one list per key",
			u.w.Name, cells, len(u.specs), len(u.keys), want)
	}

	// The pre-fold keys in first-need order: each must fold into the first
	// key with its digest, and those first keys are the distinct ones.
	var order []string
	for _, arch := range archs {
		for _, algo := range Algos() {
			if k := variantKey(arch, algo); !slices.Contains(order, k) {
				order = append(order, k)
			}
		}
	}
	first := map[[sha256.Size]byte]string{}
	var reps []string
	for _, k := range order {
		d := foldDigest(t, u, k)
		rep, seen := first[d]
		if !seen {
			rep = k
			first[d] = k
			reps = append(reps, k)
		}
		if into[k] != rep {
			t.Errorf("%s/%s: folded into %q, but its digest first appears at %s", u.w.Name, k, into[k], rep)
		}
	}
	if u.totalKeys != len(order) {
		t.Errorf("%s: totalKeys = %d, want %d", u.w.Name, u.totalKeys, len(order))
	}
	if !slices.Equal(u.keys, reps) {
		t.Errorf("%s: distinct keys %v, digests give %v", u.w.Name, u.keys, reps)
	}
}

// foldDigest hashes what the fold must treat as one variant: the key's
// program text, its profile text and, for a synthetic program, whether it
// is walked as the original.
func foldDigest(t *testing.T, u *evalUnit, key string) [sha256.Size]byte {
	t.Helper()
	v := u.variants[key]
	var buf bytes.Buffer
	buf.WriteString(v.prog.Format())
	buf.WriteByte(0)
	if _, err := v.prof.WriteTo(&buf); err != nil {
		t.Fatalf("%s/%s: profile WriteTo: %v", u.w.Name, key, err)
	}
	if !u.w.IsKernel() && v.prog == u.w.Prog {
		buf.WriteString("\x00orig walk")
	}
	return sha256.Sum256(buf.Bytes())
}

// TestFoldKeepsWalkKind shows why the fold compares walk kinds. A copy of
// a synthetic program's original layout, under the original profile,
// equals orig in program and profile, yet workload.Stream walks it as an
// aligned layout: it stops after the original's run count, not at the
// instruction budget, and so retires a different number of instructions.
// It must not fold into orig. (The imported CFG completes runs within its
// budget; the suite's synthetic programs do not at this scale, which
// would hide the difference.) A VM kernel's stream does not depend on
// which copy runs, so there the copy folds.
func TestFoldKeepsWalkKind(t *testing.T) {
	wcfg := workload.Config{Scale: fastCfg().Scale}
	synth, err := ImportWorkload(cfgFixture, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := workload.ByName("compress", wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w     *workload.Workload
		folds bool
	}{{synth, false}, {vm, true}} {
		w := tc.w
		u, err := newEvalUnit(w, predict.AllArchs(), fastCfg())
		if err != nil {
			t.Fatalf("%s: newEvalUnit: %v", w.Name, err)
		}
		orig := u.variants["orig"]
		clone := &variant{prog: w.Prog.Clone(), prof: orig.prof}
		if !sameProgram(orig.prog, clone.prog) || !sameProfile(orig.prof, clone.prof) {
			t.Fatalf("%s: the copy differs from orig", w.Name)
		}
		if got := u.sameVariant(orig, clone); got != tc.folds || u.sameVariant(clone, orig) != got {
			t.Errorf("%s: copy of orig folds = %v, want %v", w.Name, got, tc.folds)
		}
		if a, b := streamedInstrs(t, w, orig), streamedInstrs(t, w, clone); (a == b) != tc.folds {
			t.Errorf("%s: orig retires %d instrs, its copy %d; equal = %v, want %v", w.Name, a, b, a == b, tc.folds)
		}
	}
}

// streamedInstrs drains v's stream and returns the instructions it retired.
func streamedInstrs(t *testing.T, w *workload.Workload, v *variant) uint64 {
	t.Helper()
	lay, err := trace.CompileLayout(v.prog)
	if err != nil {
		t.Fatalf("%s: CompileLayout: %v", w.Name, err)
	}
	src, err := w.Stream(v.prog, v.prof, lay, 0)
	if err != nil {
		t.Fatalf("%s: Stream: %v", w.Name, err)
	}
	defer src.Close()
	var b trace.Batch
	for {
		ok, err := src.Fill(&b)
		if err != nil {
			t.Fatalf("%s: Fill: %v", w.Name, err)
		}
		if !ok {
			return src.Instrs()
		}
	}
}
