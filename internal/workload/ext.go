package workload

import "fmt"

// Extended workload classes. The paper's Table 2 suite (Names/Suite) is
// pinned at 24 programs; the families below are additional stress workloads
// reachable by name (ByName, AllNames) and through the experiments grid's
// program selection, without perturbing any paper-suite output.
const (
	// Adversarial groups the post-paper stress families: string-matching
	// kernels with analytically known branch behaviour (mp/kmp), workloads
	// that flip hot-edge direction at phase boundaries (phased), and
	// branch-melding (if-conversion) variants of suite kernels (*-meld).
	Adversarial Class = "Adversarial"
	// Imported marks workloads built from a program supplied from outside
	// rather than from a Spec: an external CFG document (internal/cfgio), a
	// program posted to balignd (Inline) or a library caller's program
	// (FromProgram).
	Imported Class = "Imported"
)

// extSpecs lists the extended families in presentation order. Kernel specs
// only — every extended workload executes on the VM, so stream and
// flat/ref parity hold by the same oracles that cover the suite kernels.
var extSpecs = []Spec{
	{Name: "mp", Class: Adversarial, Kernel: mpKernel},
	{Name: "kmp", Class: Adversarial, Kernel: kmpKernel},
	{Name: "phased", Class: Adversarial, Kernel: phasedKernel},
	{Name: "sc-meld", Class: Adversarial, Kernel: scMeldKernel},
	{Name: "espresso-meld", Class: Adversarial, Kernel: espressoMeldKernel},
}

// ExtNames returns the extended (non-paper) workload names.
func ExtNames() []string {
	names := make([]string, 0, len(extSpecs))
	for _, s := range extSpecs {
		names = append(names, s.Name)
	}
	return names
}

// AllNames returns every buildable workload name: the paper suite in Table 2
// order followed by the extended families.
func AllNames() []string {
	return append(Names(), ExtNames()...)
}

// byNameSpec finds a spec in either registry.
func byNameSpec(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range extSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ExtSuite builds all extended workloads.
func ExtSuite(cfg Config) ([]*Workload, error) {
	out := make([]*Workload, 0, len(extSpecs))
	for _, s := range extSpecs {
		w, err := build(s, cfg)
		if err != nil {
			return nil, fmt.Errorf("workload: building %s: %w", s.Name, err)
		}
		out = append(out, w)
	}
	return out, nil
}
