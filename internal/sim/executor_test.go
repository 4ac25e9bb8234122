package sim

import (
	"strings"
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

// TestParseKernelModeEnumeratesModes pins the error-message contract: every
// rejection must list every accepted value.
func TestParseKernelModeEnumeratesModes(t *testing.T) {
	for _, in := range []string{"bogus", "fast", "FLAT"} {
		_, err := ParseKernelMode(in)
		if err == nil {
			t.Fatalf("ParseKernelMode(%q) succeeded", in)
		}
		for _, m := range KernelModes() {
			if !strings.Contains(err.Error(), string(m)) {
				t.Errorf("ParseKernelMode(%q) error %q does not mention mode %q", in, err, m)
			}
		}
	}
}

// TestExecutorModesAgree runs the same stream through both executors and
// requires each to reproduce the reference simulators, then checks the
// phase-split counters account for the work: each mode's compile and run
// phases must both be populated so per-consumer setup is never
// misattributed to simulation cost.
func TestExecutorModesAgree(t *testing.T) {
	f := newStreamFixture(t)
	archs := predict.AllArchs()
	want := f.reference(t, archs)
	for _, mode := range []KernelMode{KernelRef, KernelFlat} {
		rec := obs.New("test")
		x, err := NewExecutor(string(mode), rec)
		if err != nil {
			t.Fatalf("NewExecutor(%s): %v", mode, err)
		}
		got, err := x.SimulateStream(nil, NewStreamer(nil), f.lay, f.source(t, 0), f.w.Prog, f.prof, archs)
		if err != nil {
			t.Fatalf("%s: SimulateStream: %v", mode, err)
		}
		for i, arch := range archs {
			if got[i] != want[i] {
				t.Errorf("%s/%s: executor disagrees with the reference:\n got  %+v\n want %+v",
					mode, arch, got[i], want[i])
			}
		}
		c := rec.Report().Counters
		if n := c["sim.exec.stream_cells"]; n != int64(len(archs)) {
			t.Errorf("%s: sim.exec.stream_cells = %d, want %d", mode, n, len(archs))
		}
		if want := int64(len(archs)) * int64(len(f.events)); c["sim.exec.events"] != want {
			t.Errorf("%s: sim.exec.events = %d, want %d", mode, c["sim.exec.events"], want)
		}
		if c["sim.exec.compile_ns"] <= 0 || c["sim.exec.run_ns"] <= 0 {
			t.Errorf("%s: phase split not populated: compile %dns, run %dns", mode, c["sim.exec.compile_ns"], c["sim.exec.run_ns"])
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
		if _, err := x.SimulateStream(nil, NewStreamer(nil), f.lay, f.source(t, 0), f.w.Prog, nil, archs); err == nil {
			t.Errorf("%s: SimulateStream(likely, nil profile) succeeded", mode)
		}
	}
}
