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
// byte-identical across kernel flat/ref, GOMAXPROCS {1,4} and intra-variant
// shard counts {1,3}. These predictors carry the most replay-sensitive
// state in the registry (geometric global history, useful bits, training
// margins), so any divergence between the flat kernel, the reference
// simulators fed the decoded stream, or a ForwardBatch fast-forward shows
// up here as a byte diff. make suite-smoke reruns this under GOMAXPROCS=4
// -race.
func TestTaggedPredictorStreamParity(t *testing.T) {
	archs := []predict.ArchID{predict.ArchTAGE, predict.ArchPerceptron}
	cfg := fastCfg("phased", "mp")

	run := func(label, kernel string, shards int) string {
		t.Helper()
		c := cfg
		c.Kernel, c.Shards = kernel, shards
		s, err := Summaries(c, archs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := 2 * len(archs) * len(Algos()); len(s) != want {
			t.Fatalf("%s: %d summaries, want %d", label, len(s), want)
		}
		return metrics.EncodeSummaries(s)
	}

	want := run("baseline", "flat", 1)
	for _, arch := range archs {
		if !strings.Contains(want, string(arch)) {
			t.Fatalf("summary grid missing %s rows:\n%s", arch, want)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 4} {
		runtime.GOMAXPROCS(gmp)
		for _, shards := range []int{1, 3} {
			for _, kernel := range []string{"flat", "ref"} {
				label := fmt.Sprintf("gomaxprocs=%d shards=%d kernel=%s", gmp, shards, kernel)
				if got := run(label, kernel, shards); got != want {
					t.Errorf("%s diverges:\n%s", label, firstDiff(want, got))
				}
			}
		}
	}
}
