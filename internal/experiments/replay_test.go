package experiments

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"balign/internal/metrics"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/sim"
	"balign/internal/workload"
)

// TestReplayCountersReportTheLog: the run report counts the decision log
// that a VM program's training run records, beside the profile's time,
// and a walker-only grid records no log.
func TestReplayCountersReportTheLog(t *testing.T) {
	t.Parallel()
	counters := func(program string) map[string]int64 {
		cfg := fastCfg(program)
		cfg.Obs = obs.New("test")
		if _, err := Summaries(cfg, predict.StaticArchs()); err != nil {
			t.Fatal(err)
		}
		return cfg.Obs.Report().Counters
	}

	w, err := workload.ByName("compress", workload.Config{Scale: fastCfg().Scale})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.CollectProfile(); err != nil {
		t.Fatal(err)
	}
	log := w.DecisionLog()
	c := counters("compress")
	if n, b := c["exp.replay.decisions"], c["exp.replay.log_bytes"]; n <= 0 || b <= 0 ||
		n != int64(log.Len()) || b != int64(log.SizeBytes()) {
		t.Errorf("compress: exp.replay.decisions = %d, exp.replay.log_bytes = %d; the log holds %d decisions in %d bytes",
			n, b, log.Len(), log.SizeBytes())
	}
	c = counters("ora")
	for _, name := range []string{"exp.replay.decisions", "exp.replay.log_bytes"} {
		if _, ok := c[name]; ok {
			t.Errorf("walker-only grid recorded %s = %d", name, c[name])
		}
	}
}

// TestVMFoldReadsOnlyBranchCounts pins the profile fields a VM variant's
// cells read, the fields sameVariant compares: changing a variant's
// Edges, EntryCount or Instrs leaves every cell identical, and changing
// its Branches changes LIKELY's.
func TestVMFoldReadsOnlyBranchCounts(t *testing.T) {
	t.Parallel()
	archs := predict.AllArchs()
	u, _, err := gridVariants("compress", archs)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.NewExecutor("", nil)
	if err != nil {
		t.Fatal(err)
	}
	key := u.keys[len(u.keys)-1]
	base := u.variants[key]
	cells := func(change func(*profile.Profile)) []metrics.Summary {
		prof := copyProfile(base.prof)
		change(prof)
		u.variants["probe"] = &variant{prog: base.prog, prof: prof}
		u.specs["probe"] = nil
		for i, arch := range archs {
			u.specs["probe"] = append(u.specs["probe"], simSpec{arch, AlgoOrig, i})
		}
		out := make([]metrics.Summary, len(archs))
		if err := runVariant(context.Background(), u, "probe", simPath{str: sim.NewStreamer(nil), exec: exec}, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := cells(func(*profile.Profile) {})
	for _, field := range []string{"Edges", "EntryCount", "Instrs"} {
		if got := cells(profileChanges[field]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: changing the profile's %s changed the cells", u.w.Name, key, field)
		}
	}
	swapped := cells(profileChanges["Branches"])
	for i, arch := range archs {
		if changed := !reflect.DeepEqual(swapped[i], want[i]); changed != (arch == predict.ArchLikely) {
			t.Errorf("%s/%s: changing the branch counts changed %s's cell = %v", u.w.Name, key, arch, changed)
		}
	}
}

// copyProfile returns a deep copy of pf.
func copyProfile(pf *profile.Profile) *profile.Profile {
	out := *pf
	out.Procs = make(map[string]*profile.ProcProfile, len(pf.Procs))
	for name, pp := range pf.Procs {
		c := *pp
		c.Edges, c.Branches = maps.Clone(pp.Edges), maps.Clone(pp.Branches)
		out.Procs[name] = &c
	}
	return &out
}
