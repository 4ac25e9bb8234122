package experiments

import (
	"testing"

	"balign/internal/metrics"
	"balign/internal/predict"
	"balign/internal/workload"
)

// kernelWorkloads are the eight VM-executed workload kernels: the programs
// whose traces come from real computation rather than a stochastic walk.
var kernelWorkloads = []string{
	"alvinn", "ear", "tomcatv", "compress", "eqntott", "espresso", "li", "sc",
}

// vmWorkloads are every VM workload: the eight workload kernels and the
// five extended families, two of which (mp, kmp) repeat their run.
var vmWorkloads = append(append([]string{}, kernelWorkloads...), workload.ExtNames()...)

// TestKernelMatchesReferenceGrid is the flat-kernel half of the
// differential oracle: the full {program x architecture x algorithm} grid
// run on the reference executor (-kernel=ref) must be byte-identical to the
// same grid on the compiled flat kernel (-kernel=flat), over every workload
// kernel and every static and dynamic architecture.
func TestKernelMatchesReferenceGrid(t *testing.T) {
	t.Parallel()
	archs := predict.AllArchs()
	run := func(mode string) string {
		cfg := fastCfg(kernelWorkloads...)
		cfg.Kernel = mode
		s, err := Summaries(cfg, archs)
		if err != nil {
			t.Fatalf("kernel=%s: %v", mode, err)
		}
		if want := len(kernelWorkloads) * len(archs) * len(Algos()); len(s) != want {
			t.Fatalf("kernel=%s: %d summaries, want %d", mode, len(s), want)
		}
		return metrics.EncodeSummaries(s)
	}
	if ref, flat := run("ref"), run("flat"); ref != flat {
		t.Errorf("flat kernel grid diverges from reference:\n%s", firstDiff(ref, flat))
	}
}
