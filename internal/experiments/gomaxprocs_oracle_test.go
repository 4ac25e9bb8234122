package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"balign/internal/metrics"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/sim"
)

// TestDeterminismAcrossGOMAXPROCS is the parallel-determinism oracle: the
// whole-grid summary encoding must be byte-identical at GOMAXPROCS 1, 2 and
// 8, in both kernel modes, and at every intra-variant shard count. Run under -race (make ci does) the GOMAXPROCS>1 legs also
// make the scheduler interleave producer, consumer and shard goroutines for
// real, so ordering bugs surface as either a diff or a race report.
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
		// Intra-variant sharding legs: the flat kernel with explicit shard
		// counts and with a derived split from a worker budget.
		for _, shards := range []int{2, 3} {
			label := fmt.Sprintf("gomaxprocs=%d shards=%d", gmp, shards)
			got := run(label, func(cfg *Config) { cfg.Shards = shards })
			if got != want {
				t.Errorf("%s diverges from serial oracle:\n%s", label, firstDiff(want, got))
			}
		}
		label := fmt.Sprintf("gomaxprocs=%d workers=24", gmp)
		got := run(label, func(cfg *Config) { cfg.Workers = 24 })
		if got != want {
			t.Errorf("%s diverges from serial oracle:\n%s", label, firstDiff(want, got))
		}
	}
}

// TestShardedRunActuallyShards guards the oracle above against a silently
// unsharded pass: with Shards set, the executor must report the shard count
// and a nonzero forward pass, and the stream section must show the arena
// recycling ring buffers across variants.
func TestShardedRunActuallyShards(t *testing.T) {
	cfg := fastCfg("ora", "compress")
	cfg.Shards = 2
	cfg.Obs = obs.New("shard-oracle")
	if _, err := Summaries(cfg, predict.AllArchs()); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Obs.Report()
	xs, ok := rep.Sections["executor"].(sim.ExecStats)
	if !ok {
		t.Fatalf("executor section missing or wrong type: %#v", rep.Sections["executor"])
	}
	if xs.Shards != 2 {
		t.Errorf("executor ran with %d shards, want 2", xs.Shards)
	}
	if xs.ForwardEvents == 0 || rep.Counters["sim.exec.forward_events"] == 0 {
		t.Error("sharded run recorded no forwarded events")
	}
	ss, ok := rep.Sections["stream"].(sim.StreamStats)
	if !ok {
		t.Fatalf("stream section missing or wrong type: %#v", rep.Sections["stream"])
	}
	if ss.ArenaReuses == 0 {
		t.Error("multi-variant streamed run reused no arena buffers")
	}
	if ss.GenNs == 0 {
		t.Error("streamed run recorded no generation time")
	}
}
