package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"balign/internal/metrics"
	"balign/internal/predict"
)

// TestDeterminismAcrossGOMAXPROCS is the parallel-determinism oracle: the
// whole-grid summary encoding must be byte-identical at GOMAXPROCS 1, 2 and
// 8, in both kernel modes. Run under -race (make ci does) the GOMAXPROCS>1
// legs also make the scheduler interleave the engine's variant tasks, which
// share one streamer, for real, so ordering bugs surface as either a diff
// or a race report.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	programs := []string{"ora", "compress"}
	archs := predict.AllArchs()

	run := func(label string, mutate func(*Config)) string {
		t.Helper()
		cfg := fastCfg(programs...)
		mutate(&cfg)
		s, err := Summaries(cfg, archs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := len(programs) * len(archs) * len(Algos()); len(s) != want {
			t.Fatalf("%s: %d summaries, want %d", label, len(s), want)
		}
		return metrics.EncodeSummaries(s)
	}

	want := run("baseline", func(cfg *Config) { cfg.Parallelism = 1 })

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, kern := range []string{"flat", "ref"} {
			label := fmt.Sprintf("gomaxprocs=%d kernel=%s", gmp, kern)
			got := run(label, func(cfg *Config) { cfg.Kernel = kern })
			if got != want {
				t.Errorf("%s diverges from serial oracle:\n%s", label, firstDiff(want, got))
			}
		}
	}
}
