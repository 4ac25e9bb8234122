package kernel

import (
	"testing"

	"balign/internal/cost"
	"balign/internal/predict"
)

// TestRegistryWiredThroughEveryLayer is the registry completeness check:
// every registered architecture must construct a reference simulator,
// compile into a flat kernel, resolve to an alignment cost model, and sit
// in exactly one of the grid lists. A descriptor that is registered but
// unusable in any layer fails here, not at first use.
func TestRegistryWiredThroughEveryLayer(t *testing.T) {
	prog := mustAssemble(t, `
proc main
    li   r1, 4
loop:
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`)
	prof := profileOf(t, prog, 200)

	grids := map[string][]predict.ArchID{
		"static":    predict.StaticArchs(),
		"dynamic":   predict.DynamicArchs(),
		"extension": predict.ExtensionArchs(),
	}

	for _, arch := range predict.AllArchs() {
		d, ok := predict.Lookup(arch)
		if !ok {
			t.Errorf("%s: in AllArchs but not in the registry", arch)
			continue
		}
		if d.ID != arch {
			t.Errorf("%s: descriptor carries id %q", arch, d.ID)
		}

		sim, err := predict.NewSimulator(arch, prog, prof)
		if err != nil {
			t.Errorf("%s: NewSimulator: %v", arch, err)
		} else if sim.Name() == "" {
			t.Errorf("%s: simulator has an empty name", arch)
		}

		k, err := Compile(prog, prof, arch, nil)
		if err != nil {
			t.Errorf("%s: Compile: %v", arch, err)
		} else if events := recordEvents(t, prog, 200); len(events) > 0 && sim != nil {
			if err := runEvents(t, k, events); err != nil {
				t.Errorf("%s: compiled kernel RunBatch: %v", arch, err)
			} else if want, _ := ReferenceRun(sim, events); k.Result() != want {
				t.Errorf("%s: compiled kernel diverges from the reference:\n kernel    %+v\n reference %+v",
					arch, k.Result(), want)
			}
		}

		if _, err := cost.ForArch(arch); err != nil {
			t.Errorf("%s: cost.ForArch: %v", arch, err)
		}

		member := 0
		for name, list := range grids {
			for _, id := range list {
				if id == arch {
					member++
					if want := gridName(d.Grid); name != want {
						t.Errorf("%s: listed in %s grid, descriptor says %s", arch, name, want)
					}
				}
			}
		}
		if member != 1 {
			t.Errorf("%s: appears in %d grid lists, want exactly 1", arch, member)
		}
	}
}

func gridName(g predict.Grid) string { return g.String() }
