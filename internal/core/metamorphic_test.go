package core

import (
	"fmt"
	"testing"

	"balign/internal/cost"
	"balign/internal/workload"
)

// TestAlignmentNeverWorsensModelCost is the metamorphic property behind the
// whole transformation: for the model-guided algorithms (Cost and TryN),
// realigning a program must not increase its layout cost under the very
// model that guided the alignment — both optimize that objective and both
// may fall back to keeping a layout when no improvement exists. (Greedy
// carries no such guarantee: it chains by edge weight without consulting a
// model, and the paper's Figure 3 is exactly a case where it loses.)
//
// The property is checked across suite programs and every cost model, and
// the suite runs under -race in the verify target, so it doubles as a
// concurrency check on the alignment path.
func TestAlignmentNeverWorsensModelCost(t *testing.T) {
	programs := []string{"ora", "compress", "espresso", "db++", "doduc"}
	models := []cost.Model{
		cost.FallthroughModel{}, cost.BTFNTModel{}, cost.LikelyModel{},
		cost.PHTModel{}, cost.BTBModel{},
	}
	algos := []Algorithm{AlgoCost, AlgoTryN}

	for _, name := range programs {
		w, err := workload.ByName(name, workload.Config{Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		pf, _, err := w.CollectProfile()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			base := cost.ProgramCost(w.Prog, pf, m)
			for _, algo := range algos {
				t.Run(fmt.Sprintf("%s/%s/%s", name, m.Name(), algo), func(t *testing.T) {
					res, err := AlignProgram(w.Prog, pf, Options{Algorithm: algo, Model: m})
					if err != nil {
						t.Fatal(err)
					}
					aligned := cost.ProgramCost(res.Prog, res.Prof, m)
					// Allow for float accumulation noise on equal layouts.
					if aligned > base*(1+1e-9) {
						t.Errorf("aligned layout cost %.3f exceeds original %.3f under %s",
							aligned, base, m.Name())
					}
				})
			}
		}
	}
}
