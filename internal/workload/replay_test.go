package workload

import (
	"runtime"
	"strings"
	"testing"

	"balign/internal/asm"
	"balign/internal/ir"
	"balign/internal/trace"
)

// drainStream streams prog through w and returns the first error, or nil
// once the stream is exhausted.
func drainStream(t *testing.T, w *Workload, prog *ir.Program) error {
	t.Helper()
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.Stream(prog, nil, lay, 0)
	if err != nil {
		return err
	}
	defer src.Close()
	var b trace.Batch
	for {
		ok, err := src.Fill(&b)
		if err != nil || !ok {
			return err
		}
	}
}

// TestVMStreamStartsNoGoroutine: a VM workload's stream replays the
// decision log on the caller's goroutine, so no goroutine appears across
// Stream, a Fill and Close, and none keeps executing the program after
// Close.
func TestVMStreamStartsNoGoroutine(t *testing.T) {
	w, err := ByName("compress", Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.CollectProfile(); err != nil {
		t.Fatal(err)
	}
	lay, err := trace.CompileLayout(w.Prog)
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	check := func(step string) {
		if n := runtime.NumGoroutine(); n != start {
			t.Errorf("after %s: %d goroutines, %d before Stream", step, n, start)
		}
	}
	src, err := w.Stream(w.Prog, nil, lay, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("Stream")
	var b trace.Batch
	if ok, err := src.Fill(&b); !ok || err != nil {
		t.Fatalf("Fill = %v, %v", ok, err)
	}
	check("Fill")
	src.Close()
	check("Close")
}

// TestReplayRejectsNonLayouts: Stream checks the program against the
// workload's original before it replays anything. A conditional whose op
// is inverted but whose targets are not swapped, and another workload's
// program, are errors, not silently different streams.
func TestReplayRejectsNonLayouts(t *testing.T) {
	w, err := ByName("compress", Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.CollectProfile(); err != nil {
		t.Fatal(err)
	}
	if err := drainStream(t, w, w.Prog.Clone()); err != nil {
		t.Fatalf("a copy of the original is a layout: %v", err)
	}

	inverted := w.Prog.Clone()
	flipped := false
	for _, p := range inverted.Procs {
		for bi, b := range p.Blocks {
			if t, ok := b.Terminator(); ok && t.Kind() == ir.CondBr && t.TargetBlock != ir.BlockID(bi+1) && !flipped {
				t.Op, flipped = ir.InvertBranch(t.Op), true
			}
		}
	}
	if !flipped {
		t.Fatal("compress has no conditional with two distinct successors")
	}
	other, err := ByName("eqntott", Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for name, prog := range map[string]*ir.Program{"inverted op, targets kept": inverted, "eqntott": other.Prog} {
		err := drainStream(t, w, prog)
		if err == nil || !strings.Contains(err.Error(), "is not a layout of") || !strings.Contains(err.Error(), "compress") {
			t.Errorf("%s: stream error = %v, want a layout check failure naming compress", name, err)
		}
	}
}

// TestReplayLogMustMatch: a log cut short, or one with decisions left
// over, fails the stream rather than ending it early or late.
func TestReplayLogMustMatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(w *Workload, log *trace.DecisionLog) error
		want   string
	}{
		{"cut short", func(w *Workload, log *trace.DecisionLog) error {
			_, err := w.Run(w.Prog, nil, nil, &prefixSink{log: log, branches: 1000})
			return err
		}, "ran out of decisions"},
		{"left over", func(w *Workload, log *trace.DecisionLog) error {
			for range 2 {
				if _, err := w.Run(w.Prog, nil, nil, log); err != nil {
					return err
				}
			}
			return nil
		}, "ended with"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := ByName("compress", Config{Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			w.log = trace.NewDecisionLog(w.Prog)
			if err := tc.record(w, w.log); err != nil {
				t.Fatal(err)
			}
			err = drainStream(t, w, w.Prog)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "workload compress") {
				t.Errorf("stream error = %v, want %q naming the workload", err, tc.want)
			}
		})
	}
}

// prefixSink passes the first branches conditionals and every edge to log.
type prefixSink struct {
	log      *trace.DecisionLog
	branches int
}

func (s *prefixSink) Edge(procIdx int, from, to ir.BlockID) { s.log.Edge(procIdx, from, to) }

func (s *prefixSink) Branch(procIdx int, block ir.BlockID, taken bool) {
	if s.branches > 0 {
		s.branches--
		s.log.Branch(procIdx, block, taken)
	}
}

func (s *prefixSink) Instrs(uint64) {}

// TestInlineVariantPastBudget: an inline VM workload fails a layout whose
// run passes the budget, as the VM fails it, with the VM's error, although
// the original's run fits. The original retires 22 instructions and the
// layout, with two inserted jumps, 24.
func TestInlineVariantPastBudget(t *testing.T) {
	orig := asm.MustAssemble(`
proc main
    li r1, 10
loop:
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`)
	layout := asm.MustAssemble(`
proc main
    li r1, 10
j0:
    br loop
exit:
    halt
loop:
    addi r1, r1, -1
    bnez r1, loop
j1:
    br exit
endproc
`)
	for bi, o := range []ir.BlockID{0, ir.NoBlock, 2, 1, ir.NoBlock} {
		layout.Procs[0].Blocks[bi].Orig = o
	}
	for _, tc := range []struct {
		budget uint64
		want   string
	}{{24, ""}, {23, "workload loop: vm: exceeded 23 steps"}} {
		w, err := Inline("loop", orig, nil, false, 0, tc.budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, instrs, err := w.CollectProfile(); err != nil || instrs != 22 {
			t.Fatalf("budget %d: training run = %d instructions, %v; want 22", tc.budget, instrs, err)
		}
		_, vmErr := w.Run(layout, nil, nil, nil)
		err = drainStream(t, w, layout)
		if tc.want == "" {
			if err != nil || vmErr != nil {
				t.Errorf("budget %d: replay error %v, VM error %v; want the layout to fit", tc.budget, err, vmErr)
			}
			continue
		}
		if err == nil || vmErr == nil || err.Error() != vmErr.Error() || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("budget %d: replay error %v, VM error %v; want both %q", tc.budget, err, vmErr, tc.want)
		}
	}
}
