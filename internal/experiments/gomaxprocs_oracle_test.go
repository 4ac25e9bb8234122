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

// TestSplitWorkers pins how a worker budget resolves into variant
// parallelism and intra-variant shards. The grid passes one variant's
// broadcast consumers: a kernel per architecture plus the i-cache
// consumer, 11 for the full architecture set. Explicit settings always win.
func TestSplitWorkers(t *testing.T) {
	all := len(predict.AllArchs()) + 1
	for _, tc := range []struct {
		name      string
		cfg       Config
		consumers int
		par, shds int
	}{
		{"nothing set", Config{}, all, 0, 1},
		{"parallelism only", Config{Parallelism: 3}, all, 3, 1},
		{"shards only", Config{Shards: 2}, all, 0, 2},
		{"budget below one broadcast", Config{Workers: 8}, all, 1, 1},
		// 22 workers are one goroutine short of producer + 10 kernels + the
		// i-cache twice over, so the variant stays unsharded.
		{"budget just under two broadcasts", Config{Workers: 22}, all, 1, 1},
		{"budget for two shards", Config{Workers: 24}, all, 1, 2},
		{"budget for three shards", Config{Workers: 36}, all, 1, 3},
		{"shards capped", Config{Workers: 64}, all, 1, maxStreamShards},
		{"explicit shards keep the budget for variants", Config{Workers: 24, Shards: 1}, all, 2, 1},
		{"explicit parallelism keeps derived shards", Config{Workers: 24, Parallelism: 5}, all, 5, 2},
		{"one architecture, small budget", Config{Workers: 6}, 2, 1, 2},
		{"one architecture, large budget", Config{Workers: 100}, 2, 11, maxStreamShards},
	} {
		par, shards := tc.cfg.splitWorkers(tc.consumers)
		if par != tc.par || shards != tc.shds {
			t.Errorf("%s: splitWorkers(%d) = (%d, %d), want (%d, %d)",
				tc.name, tc.consumers, par, shards, tc.par, tc.shds)
		}
	}
}
