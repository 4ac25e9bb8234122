package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/workload"
)

// multiEdgeSink fans edge observations out to several sinks.
type multiEdgeSink []trace.EdgeSink

func (m multiEdgeSink) Edge(procIdx int, from, to ir.BlockID) {
	for _, s := range m {
		s.Edge(procIdx, from, to)
	}
}

func (m multiEdgeSink) Branch(procIdx int, block ir.BlockID, taken bool) {
	for _, s := range m {
		s.Branch(procIdx, block, taken)
	}
}

func (m multiEdgeSink) Instrs(n uint64) {
	for _, s := range m {
		s.Instrs(n)
	}
}

// TestWalkerReplaysVMExactly is the differential test between the repo's two
// trace producers: the VM (real semantics) and the Walker (CFG walk driven
// by a behaviour model). The decision log recorded from the VM execution,
// replayed as the walker's model, forces the walker down the identical
// path, so the two must emit byte-identical event streams, identical edge
// profiles and identical instruction counts, and the walk must consume the
// log exactly. The same log streamed by NewReplaySource, the compiled
// replay every VM variant of the grid streams, must match too.
// Divergence means one producer mis-handles some control-flow shape — the
// exact class of bug that would silently skew every simulated table.
func TestWalkerReplaysVMExactly(t *testing.T) {
	ws, err := workload.Suite(workload.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	tested := 0
	for _, w := range ws {
		if !w.IsKernel() {
			continue
		}
		tested++
		t.Run(w.Name, func(t *testing.T) {
			// Record the VM execution: events, edge profile and the log.
			log := trace.NewDecisionLog(w.Prog)
			var vmEvents trace.Recorder
			vmProf := profile.NewCollector(w.Prog)
			vmInstrs, err := w.Run(w.Prog, nil, &vmEvents, multiEdgeSink{log, vmProf})
			if err != nil {
				t.Fatal(err)
			}

			// Replay through the walker under the log's model. The VM
			// emits no event for its final halt, so an instruction budget of
			// exactly vmInstrs ends the walk at the same point.
			replay, err := log.Replay(w.Prog)
			if err != nil {
				t.Fatal(err)
			}
			var wkEvents trace.Recorder
			wkProf := profile.NewCollector(w.Prog)
			walker := &trace.Walker{
				Prog:      w.Prog,
				Model:     replay,
				MaxInstrs: vmInstrs,
				MaxDepth:  1 << 12,
			}
			wkInstrs, runs, err := walker.Run(&wkEvents, wkProf)
			if err != nil {
				t.Fatal(err)
			}

			if err := replay.Err(); err != nil {
				t.Errorf("walker did not consume the log exactly — paths diverged: %v", err)
			}
			if wkInstrs != vmInstrs {
				t.Errorf("instruction counts differ: vm %d, walker %d", vmInstrs, wkInstrs)
			}
			if err := compareEvents(vmEvents.Events, wkEvents.Events); err != nil {
				t.Errorf("event streams differ: %v", err)
			}

			var vmBuf, wkBuf bytes.Buffer
			vp, kp := vmProf.Profile(), wkProf.Profile()
			vp.Instrs, kp.Instrs = 0, 0 // compared separately above
			if _, err := vp.WriteTo(&vmBuf); err != nil {
				t.Fatal(err)
			}
			if _, err := kp.WriteTo(&wkBuf); err != nil {
				t.Fatal(err)
			}
			if vmBuf.String() != wkBuf.String() {
				t.Errorf("edge profiles differ:\nvm:\n%s\nwalker:\n%s", vmBuf.String(), wkBuf.String())
			}

			lay, err := trace.CompileLayout(w.Prog)
			if err != nil {
				t.Fatal(err)
			}
			src, err := trace.NewReplaySource(log, w.Prog, lay, 512, runs, vmInstrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareEvents(vmEvents.Events, drainSource(t, lay, src)); err != nil {
				t.Errorf("replay source: %v", err)
			}
			if src.Instrs() != vmInstrs {
				t.Errorf("instruction counts differ: vm %d, replay source %d", vmInstrs, src.Instrs())
			}
		})
	}
	if tested == 0 {
		t.Fatal("suite contains no kernel workloads — differential test ran nothing")
	}
}

// compareEvents reports the first position where two event streams disagree.
func compareEvents(a, b []trace.Event) error {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Errorf("event %d: vm %+v, walker %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("lengths differ: vm %d, walker %d", len(a), len(b))
	}
	return nil
}
