package experiments

import (
	"context"
	"testing"

	"balign/internal/icache"
	"balign/internal/predict"
	"balign/internal/sim"
)

// icacheOracleWorkloads are the walker-backed and VM-executed programs the
// i-cache oracle streams: every VM kernel but the two slowest (ear and
// espresso, whose generation parity TestStreamPerSiteParityAcrossGrid
// already pins), so the oracle stays cheap enough for the race-enabled
// suite-smoke leg.
var icacheOracleWorkloads = []string{"ora", "gcc", "alvinn", "tomcatv", "compress", "eqntott", "li", "sc"}

// TestICacheStreamMatchesRun is the oracle for the grid's i-cache scoring,
// which rides each variant's broadcast as one more consumer of its packed
// batches. For every variant gridVariants returns, the IC counters
// runVariant attaches to each of the variant's cells must equal an
// icache.Sim fed the events w.Run pushes, in both kernel modes. That
// push-fed replay is the pass preparation used to run; it survives only
// here, as the reference.
func TestICacheStreamMatchesRun(t *testing.T) {
	archs := predict.AllArchs()
	for _, name := range icacheOracleWorkloads {
		t.Run(name, func(t *testing.T) {
			u, keys := gridVariants(t, name, archs)
			want := make(map[string]ICacheCell, len(keys))
			for _, key := range keys {
				v := u.variants[key]
				ic := icache.New(icache.DefaultConfig())
				if _, err := u.w.Run(v.prog, v.prof, ic, nil); err != nil {
					t.Fatalf("%s: Run: %v", key, err)
				}
				if ic.Fetches == 0 {
					t.Fatalf("%s: the push-fed i-cache fetched nothing", key)
				}
				want[key] = ICacheCell{Fetches: ic.Fetches, Accesses: ic.Accesses, Misses: ic.Misses, MPKI: ic.MPKI()}
			}
			for _, kern := range []string{"flat", "ref"} {
				exec, err := sim.NewExecutor(kern, nil)
				if err != nil {
					t.Fatal(err)
				}
				str := sim.NewStreamer(0, 0, nil)
				for _, key := range keys {
					cells := make([]Cell, len(u.specs[key]))
					if err := runVariant(context.Background(), u, key, str, exec, nil, cells, 0); err != nil {
						t.Fatalf("kernel=%s %s: runVariant: %v", kern, key, err)
					}
					for i, c := range cells {
						if c.IC != want[key] {
							t.Errorf("kernel=%s %s/%s: streamed i-cache %+v, w.Run-fed %+v",
								kern, key, u.specs[key][i].arch, c.IC, want[key])
						}
					}
				}
			}
		})
	}
}
