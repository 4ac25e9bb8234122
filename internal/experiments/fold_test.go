package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/workload"
)

// TestFoldMatchesDigest is the oracle for preparation's fold of equal
// variants: newEvalUnit must fold each variant key into exactly the first
// key in first-need order with the same digest (variantDigest: the Format()
// text plus, for a VM program, its branch counts, and for a synthetic
// program its profile text and walk kind), over every suite program and
// over the benchmark's two grids at their own scales. The distinct counts
// pin how much the grid is spared. The test prepares units only; it
// streams nothing.
func TestFoldMatchesDigest(t *testing.T) {
	t.Parallel()
	grids := []struct {
		name            string
		scale           float64
		programs        []string
		total, distinct int
	}{
		{"suite", fastCfg().Scale, workload.Names(), 384, 215},
		{"suite-sim", 3.0, []string{"compress", "li", "sc", "eqntott", "tomcatv", "db++", "alvinn"}, 112, 31},
		{"suite-align", 0.1, []string{"ora", "compress", "espresso", "db++", "doduc", "li"}, 96, 44},
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
		d := variantDigest(t, u, u.variants[k])
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

	// Copies of each distinct variant with one profile field changed, which
	// the grid itself never produces: sameVariant must agree with the
	// digest on them too, so the fold compares exactly the fields the
	// digest reads.
	for _, k := range u.keys {
		v := u.variants[k]
		d := foldedProfile(t, u, v)
		for field, change := range profileChanges {
			p := &variant{prog: v.prog, prof: copyProfile(v.prof)}
			change(p.prof)
			want := bytes.Equal(foldedProfile(t, u, p), d) // the programs are one
			if got := u.sameVariant(v, p); got != want {
				t.Errorf("%s/%s: a copy with its profile's %s changed folds = %v, its digest says %v", u.w.Name, k, field, got, want)
			}
		}
	}
}

// profileChanges each change one profile field in place.
var profileChanges = map[string]func(*profile.Profile){
	"Edges": func(pf *profile.Profile) {
		for _, pp := range pf.Procs {
			for e := range pp.Edges {
				pp.Edges[e] = 2*pp.Edges[e] + 1
			}
		}
	},
	"EntryCount": func(pf *profile.Profile) {
		for _, pp := range pf.Procs {
			pp.EntryCount += 7
		}
	},
	"Instrs": func(pf *profile.Profile) { pf.Instrs = 3*pf.Instrs + 1 },
	"Branches": func(pf *profile.Profile) {
		for _, pp := range pf.Procs {
			for b, c := range pp.Branches {
				pp.Branches[b] = profile.BranchCount{Taken: c.Fall, Fall: c.Taken + 1}
			}
		}
	},
}

// variantDigest hashes what the fold must treat as one variant: its
// program text and what foldedProfile reads of its profile.
func variantDigest(t *testing.T, u *evalUnit, v *variant) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(v.prog.Format())
	buf.WriteByte(0)
	buf.Write(foldedProfile(t, u, v))
	return sha256.Sum256(buf.Bytes())
}

// foldedProfile renders what the fold must read of v's profile: for a VM
// program, its branch counts (the replay reads no profile, the executors
// only the branch counts); for a synthetic program, its profile text and
// whether it is walked as the original.
func foldedProfile(t *testing.T, u *evalUnit, v *variant) []byte {
	t.Helper()
	if u.w.IsKernel() {
		var lines []string
		for name, pp := range v.prof.Procs {
			for b, c := range pp.Branches {
				lines = append(lines, fmt.Sprintf("%s %d %d %d\n", name, b, c.Taken, c.Fall))
			}
		}
		slices.Sort(lines)
		return []byte(strings.Join(lines, ""))
	}
	var buf bytes.Buffer
	if _, err := v.prof.WriteTo(&buf); err != nil {
		t.Fatalf("%s: profile WriteTo: %v", u.w.Name, err)
	}
	if v.prog == u.w.Prog {
		buf.WriteString("\x00orig walk")
	}
	return buf.Bytes()
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
	t.Parallel()
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
