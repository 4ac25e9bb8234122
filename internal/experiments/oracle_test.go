package experiments

import (
	"strings"
	"testing"

	"balign/internal/metrics"
	"balign/internal/obs"
	"balign/internal/predict"
)

// TestParallelMatchesSerialOracle is the differential oracle the tentpole
// engine is held to: the full {program x architecture x algorithm} grid run
// serially (Parallelism = 1, the plain in-order loop) must be byte-identical
// to the same grid sharded across 8 workers. Any nondeterminism — shared
// state, unseeded RNG, order-dependent reduction — shows up as an encoding
// diff.
func TestParallelMatchesSerialOracle(t *testing.T) {
	programs := []string{"ora", "compress", "db++", "espresso"}
	archs := predict.AllArchs()

	run := func(par int) string {
		cfg := fastCfg(programs...)
		cfg.Parallelism = par
		s, err := Summaries(cfg, archs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if want := len(programs) * len(archs) * len(Algos()); len(s) != want {
			t.Fatalf("parallelism %d: %d summaries, want %d", par, len(s), want)
		}
		return metrics.EncodeSummaries(s)
	}

	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Errorf("parallel grid diverges from serial oracle:\n%s", firstDiff(serial, parallel))
	}
}

// TestParallelismSettingsAgree spot-checks more worker counts on a smaller
// grid, including the GOMAXPROCS default (0).
func TestParallelismSettingsAgree(t *testing.T) {
	archs := predict.StaticArchs()
	var want string
	for i, par := range []int{1, 0, 2, 3, 16} {
		cfg := fastCfg("ora", "compress")
		cfg.Parallelism = par
		s, err := Summaries(cfg, archs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got := metrics.EncodeSummaries(s)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d diverges from serial oracle:\n%s", par, firstDiff(want, got))
		}
	}
}

// TestTelemetryPreservesDeterminism is the obs-layer half of the
// differential oracle: enabling run telemetry must not perturb the
// byte-determinism guarantee. The same grid runs telemetry-off (the
// baseline) and telemetry-on at parallelism 1, 2 and GOMAXPROCS (0), and
// every encoding must be byte-identical. It also asserts that the
// telemetry-on runs actually recorded something, so a silently disabled
// recorder can't fake a pass.
func TestTelemetryPreservesDeterminism(t *testing.T) {
	archs := predict.StaticArchs()
	baseCfg := fastCfg("ora", "compress")
	baseCfg.Parallelism = 1
	base, err := Summaries(baseCfg, archs)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.EncodeSummaries(base)

	for _, par := range []int{1, 2, 0} {
		cfg := fastCfg("ora", "compress")
		cfg.Parallelism = par
		cfg.Obs = obs.New("oracle")
		s, err := Summaries(cfg, archs)
		if err != nil {
			t.Fatalf("telemetry-on parallelism %d: %v", par, err)
		}
		if got := metrics.EncodeSummaries(s); got != want {
			t.Errorf("telemetry-on run (parallelism %d) diverges from telemetry-off oracle:\n%s",
				par, firstDiff(want, got))
		}

		rep := cfg.Obs.Report()
		if rep.Counters["sim.tasks"] == 0 {
			t.Errorf("parallelism %d: engine counters empty: %v", par, rep.Counters)
		}
		if rep.Counters["core.plan.tryn.ns"] == 0 || rep.Counters["exp.profile.ns"] == 0 {
			t.Errorf("parallelism %d: alignment/profile timings missing: %v", par, rep.Counters)
		}
		if len(rep.Spans) == 0 {
			t.Errorf("parallelism %d: no engine spans recorded", par)
		}
		if rep.Sections["engine"] == nil || rep.Sections["stream"] == nil || rep.Sections["grid"] == nil {
			t.Errorf("parallelism %d: report sections missing: %v", par, rep.Sections)
		}
	}
}

// firstDiff returns the first line where two encodings disagree.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "encodings differ in length"
}
