package experiments

import (
	"testing"

	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/kernel"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/sim"
	"balign/internal/trace"
)

// vmWorkloads are the workloads whose variant streams replay the training
// run: the eight paper kernels and the VM extended families.
var vmWorkloads = append(append([]string{}, kernelWorkloads...), "mp", "kmp", "phased", "sc-meld", "espresso-meld")

// TestCostModelIsTheStaticSimulator pins the identity the paper's method
// rests on: on the static architectures, on a VM workload's training
// input, Table 1's cost model is the simulator. For every variant
// gridVariants returns, under FALLTHROUGH, BT/FNT and LIKELY, each direct
// branch site's cost.ProcSiteCosts price must equal its simulated
// executions plus penalty cycles (misfetch 1, mispredict 4), and the
// program's summed cost.ProcCost must equal the same sum over every
// conditional and unconditional site the kernel saw. So lowering the
// model's cost lowers the simulated static BEP one for one.
func TestCostModelIsTheStaticSimulator(t *testing.T) {
	t.Parallel()
	archs := predict.StaticArchs()
	for _, name := range vmWorkloads {
		t.Run(name, func(t *testing.T) {
			u, keys := gridVariants(t, name, predict.AllArchs())
			if !u.w.IsKernel() {
				t.Fatalf("%s is not a VM workload", name)
			}
			str := sim.NewStreamer(nil)
			for _, key := range keys {
				v := u.variants[key]
				lay, err := trace.CompileLayout(v.prog)
				if err != nil {
					t.Fatal(err)
				}
				k, err := kernel.CompileArchs(lay, v.prog, v.prof, archs, nil)
				if err != nil {
					t.Fatal(err)
				}
				src, err := u.w.Stream(v.prog, v.prof, lay, 0)
				if err != nil {
					t.Fatal(err)
				}
				err = str.Broadcast(nil, src, []func(*trace.Batch) error{k.RunBatch})
				src.Close()
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				for i, arch := range archs {
					m, err := cost.ForArch(arch)
					if err != nil {
						t.Fatal(err)
					}
					checkModelIsSimulator(t, key+"/"+string(arch), v.prog, v.prof, lay, k.SiteCostsOf(i), m)
				}
			}
		})
	}
}

// checkModelIsSimulator compares m's price of prog under prof with the
// simulated cycles sites holds, per site and over the program.
func checkModelIsSimulator(t *testing.T, label string, prog *ir.Program, prof *profile.Profile, lay *trace.Layout,
	sites map[uint64]kernel.SiteCost, m cost.Model) {
	t.Helper()
	cycles := func(pc uint64) float64 {
		c := sites[pc]
		return float64(c.Events + c.Cycles(predict.DefaultMisfetchPenalty, predict.DefaultMispredictPenalty))
	}
	var modelSum, simSum float64
	for _, p := range prog.Procs {
		pp := prof.Procs[p.Name]
		if pp == nil {
			pp = profile.NewProcProfile()
		}
		modelSum += cost.ProcCost(p, pp, m)
		for _, sc := range cost.ProcSiteCosts(p, pp, m) {
			if got := cycles(sc.PC); sc.Cost != got {
				t.Errorf("%s: %s block %d (pc %#x): model prices %v cycles, the simulator counts %v",
					label, p.Name, sc.Block, sc.PC, sc.Cost, got)
			}
		}
	}
	for _, s := range lay.Sites() {
		if s.Kind == ir.CondBr || s.Kind == ir.Br {
			simSum += cycles(s.PC)
		}
	}
	if modelSum != simSum {
		t.Errorf("%s: model prices the program at %v cycles, the simulator counts %v", label, modelSum, simSum)
	}
}
