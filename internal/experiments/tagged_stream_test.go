package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"balign/internal/metrics"
	"balign/internal/predict"
)

// TestTaggedPredictorStreamParity is the acceptance oracle for the modern
// tagged predictors: the TAGE and hashed-perceptron summary grid must be
// byte-identical across kernel flat/ref and GOMAXPROCS {1,4}. These
// predictors carry the most replay-sensitive state in the registry
// (geometric global history, useful bits, training margins), so any
// divergence between the flat kernel and the reference simulators fed the
// decoded stream shows up here as a byte diff. make suite-smoke reruns
// this under GOMAXPROCS=4 -race.
func TestTaggedPredictorStreamParity(t *testing.T) {
	archs := []predict.ArchID{predict.ArchTAGE, predict.ArchPerceptron}
	cfg := fastCfg("phased", "mp")

	run := func(label, kernel string) string {
		t.Helper()
		c := cfg
		c.Kernel = kernel
		s, err := Summaries(c, archs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := 2 * len(archs) * len(Algos()); len(s) != want {
			t.Fatalf("%s: %d summaries, want %d", label, len(s), want)
		}
		return metrics.EncodeSummaries(s)
	}

	want := run("baseline", "flat")
	for _, arch := range archs {
		if !strings.Contains(want, string(arch)) {
			t.Fatalf("summary grid missing %s rows:\n%s", arch, want)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 4} {
		runtime.GOMAXPROCS(gmp)
		for _, kernel := range []string{"flat", "ref"} {
			label := fmt.Sprintf("gomaxprocs=%d kernel=%s", gmp, kernel)
			if got := run(label, kernel); got != want {
				t.Errorf("%s diverges:\n%s", label, firstDiff(want, got))
			}
		}
	}
}
