package experiments

import (
	"testing"

	"balign/internal/predict"
)

// TestExtTSPBeatsCostOnDynamicArchs is the PR's acceptance gate: across a
// representative six-program slice of the suite, the ExtTSP layout's total
// branch-event penalty must beat the Cost layout's on every
// dynamic-predictor architecture (both PHTs, both BTBs, and the PAg-style
// local PHT). The distance-weighted objective needs no per-architecture
// model to get there: its single layout reduces taken transfers enough to
// win everywhere the predictor absorbs most mispredicts.
func TestExtTSPBeatsCostOnDynamicArchs(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-program evaluation grid")
	}
	archs := append(predict.DynamicArchs(), predict.ArchPHTLocal)
	cfg := Config{
		Scale:    0.3,
		Programs: []string{"ora", "compress", "espresso", "eqntott", "doduc", "li"},
	}
	summaries, err := Summaries(cfg, archs)
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]map[string]uint64{}
	for _, r := range summaries {
		if total[r.Arch] == nil {
			total[r.Arch] = map[string]uint64{}
		}
		total[r.Arch][r.Algo] += r.BEP
	}
	for _, a := range archs {
		m := total[string(a)]
		if m == nil || m["exttsp"] == 0 || m["cost"] == 0 {
			t.Fatalf("%s: missing exttsp/cost rows in grid totals %v", a, m)
		}
		if m["exttsp"] >= m["cost"] {
			t.Errorf("%s: exttsp total BEP %d is not below cost %d", a, m["exttsp"], m["cost"])
		}
	}
}
