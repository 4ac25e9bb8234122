package sim

import (
	"testing"

	"balign/internal/obs"
	"balign/internal/predict"
)

func TestParseKernelMode(t *testing.T) {
	cases := []struct {
		in   string
		want KernelMode
		err  bool
	}{
		{"", KernelFlat, false},
		{"flat", KernelFlat, false},
		{"ref", KernelRef, false},
		{"fast", "", true},
		{"FLAT", "", true},
	}
	for _, c := range cases {
		got, err := ParseKernelMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseKernelMode(%q) error = %v, want error %v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseKernelMode(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := NewExecutor("bogus", nil); err == nil {
		t.Error("NewExecutor with bogus mode succeeded")
	}
}

// TestExecutorModesAgree runs the same stream through both executors and
// requires each to reproduce the reference simulators, then checks the
// phase-split stats account for the work: each mode's compile and run
// phases must both be populated so per-consumer setup is never
// misattributed to simulation cost.
func TestExecutorModesAgree(t *testing.T) {
	f := newStreamFixture(t)
	archs := predict.AllArchs()
	want := f.reference(t, archs)
	for _, mode := range []KernelMode{KernelRef, KernelFlat} {
		x, err := NewExecutor(string(mode), obs.New("test"))
		if err != nil {
			t.Fatalf("NewExecutor(%s): %v", mode, err)
		}
		got, err := x.SimulateStream(nil, NewStreamer(0, 0, nil), f.lay, f.source(0), f.w.Prog, f.prof, archs)
		if err != nil {
			t.Fatalf("%s: SimulateStream: %v", mode, err)
		}
		for i, arch := range archs {
			if got[i] != want[i] {
				t.Errorf("%s/%s: executor disagrees with the reference:\n got  %+v\n want %+v",
					mode, arch, got[i], want[i])
			}
		}
		st := x.Stats()
		if st.Mode != string(mode) {
			t.Errorf("%s: Stats.Mode = %q", mode, st.Mode)
		}
		if st.StreamCells != uint64(len(archs)) {
			t.Errorf("%s: Stats.StreamCells = %d, want %d", mode, st.StreamCells, len(archs))
		}
		if want := uint64(len(archs)) * uint64(len(f.events)); st.Events != want {
			t.Errorf("%s: Stats.Events = %d, want %d", mode, st.Events, want)
		}
		if st.CompileNs <= 0 || st.RunNs <= 0 {
			t.Errorf("%s: phase split not populated: compile %dns, run %dns", mode, st.CompileNs, st.RunNs)
		}
	}
}

// TestExecutorSimulateErrors verifies both modes surface construction
// failures (LIKELY without a profile) as errors, not panics.
func TestExecutorSimulateErrors(t *testing.T) {
	f := newStreamFixture(t)
	for _, mode := range []KernelMode{KernelRef, KernelFlat} {
		x, err := NewExecutor(string(mode), nil)
		if err != nil {
			t.Fatal(err)
		}
		archs := []predict.ArchID{predict.ArchLikely}
		if _, err := x.SimulateStream(nil, NewStreamer(0, 0, nil), f.lay, f.source(0), f.w.Prog, nil, archs); err == nil {
			t.Errorf("%s: SimulateStream(likely, nil profile) succeeded", mode)
		}
	}
}
