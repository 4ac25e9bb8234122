package core

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/obs"
	"balign/internal/profile"
	"balign/internal/workload"
)

// allModels lists every cost model, one per registry cost group.
func allModels() []cost.Model {
	return []cost.Model{
		cost.FallthroughModel{}, cost.BTFNTModel{}, cost.LikelyModel{},
		cost.PHTModel{}, cost.BTBModel{}, cost.TaggedModel{},
	}
}

// pinnedPrograms are the suite programs whose Try15 layouts are pinned.
var pinnedPrograms = []string{"ora", "compress", "espresso", "db++", "doduc", "li"}

// pinnedLayouts are the sha256 digests of the aligned program's Format()
// for each pinned program (scale 0.1, seed 0) under each model, at the
// default window and combination budget.
var pinnedLayouts = map[string]string{
	"ora/fallthrough":      "d26073c48055dd2eef1bc4b3c6fbff77ac0f131d44182d8e4b00bf5942797632",
	"ora/btfnt":            "aa527d1ef76a04a57a4f02b7f41940ae77d2294592608d4db835b2f28e1b53a9",
	"ora/likely":           "6b6b1305ad389b0c6b357d79eb17d51e53df2f68ddda69aba8971d9b55c984da",
	"ora/pht":              "6b6b1305ad389b0c6b357d79eb17d51e53df2f68ddda69aba8971d9b55c984da",
	"ora/btb":              "aa527d1ef76a04a57a4f02b7f41940ae77d2294592608d4db835b2f28e1b53a9",
	"ora/tagged":           "6b6b1305ad389b0c6b357d79eb17d51e53df2f68ddda69aba8971d9b55c984da",
	"compress/fallthrough": "9a980c9b5a45f2853ede9818fd42e13089df8c57426cf665bf780ee47bc4ce47",
	"compress/btfnt":       "bb1fffcfd9d1861850141fa195bb58630c3698ebc700135b4f3946a4cb9f1191",
	"compress/likely":      "bb1fffcfd9d1861850141fa195bb58630c3698ebc700135b4f3946a4cb9f1191",
	"compress/pht":         "bb1fffcfd9d1861850141fa195bb58630c3698ebc700135b4f3946a4cb9f1191",
	"compress/btb":         "bb1fffcfd9d1861850141fa195bb58630c3698ebc700135b4f3946a4cb9f1191",
	"compress/tagged":      "bb1fffcfd9d1861850141fa195bb58630c3698ebc700135b4f3946a4cb9f1191",
	"espresso/fallthrough": "ddeb13295366d632c2d415228f7d1deb347c1d67bbcd34d8989a6e913ee78ef0",
	"espresso/btfnt":       "c63ff0ef0c818134a9d649cd478aa07316f8d50566d64d6b77e2895f4afdc7d4",
	"espresso/likely":      "c63ff0ef0c818134a9d649cd478aa07316f8d50566d64d6b77e2895f4afdc7d4",
	"espresso/pht":         "c63ff0ef0c818134a9d649cd478aa07316f8d50566d64d6b77e2895f4afdc7d4",
	"espresso/btb":         "36fd489ba2d5ede85df36d2d92f09139465be1b4f26e54f3b5560bf5d6a1f046",
	"espresso/tagged":      "c63ff0ef0c818134a9d649cd478aa07316f8d50566d64d6b77e2895f4afdc7d4",
	"db++/fallthrough":     "7af549f56ab29c7dacc80f8a25d0a2f632f880d93a3d77259ea57406685c46d8",
	"db++/btfnt":           "b0c3f741860d09e7b5a5a31854271b4a70d0dc4832735d4a26e2e7f738c9a5ac",
	"db++/likely":          "b0c3f741860d09e7b5a5a31854271b4a70d0dc4832735d4a26e2e7f738c9a5ac",
	"db++/pht":             "79202844b9a600ab5c94854d723375eae789004c0332057efba0b82033db19db",
	"db++/btb":             "79202844b9a600ab5c94854d723375eae789004c0332057efba0b82033db19db",
	"db++/tagged":          "79202844b9a600ab5c94854d723375eae789004c0332057efba0b82033db19db",
	"doduc/fallthrough":    "705adda6091163b42ec268eb3f05238480f573a03a35dc890d175e410334f89c",
	"doduc/btfnt":          "8ce3830bd1f99534b06762721617b5c212291c1cf10303ea501c3de54f2d690a",
	"doduc/likely":         "bf7b41029bf4ea574f94c7ae6c6b6356cb75edc95b5588d0b65dc000f01a3e13",
	"doduc/pht":            "229cb1f5e3d8d55018ac3073ba8780a1cde749c6486dcd2e7dee1443f27910dd",
	"doduc/btb":            "7d7287da1e85e13eade8c480495553baa93fa4c051c3a719cdd171d6b6b94223",
	"doduc/tagged":         "229cb1f5e3d8d55018ac3073ba8780a1cde749c6486dcd2e7dee1443f27910dd",
	"li/fallthrough":       "956aba91b094f2e6e615555baa7fb3d7143e744bcc645dec398e059a6d683aa8",
	"li/btfnt":             "37e4e44279703a145fa30a1681c93e58e8ab51a46126a7d372159344ede2234b",
	"li/likely":            "956aba91b094f2e6e615555baa7fb3d7143e744bcc645dec398e059a6d683aa8",
	"li/pht":               "956aba91b094f2e6e615555baa7fb3d7143e744bcc645dec398e059a6d683aa8",
	"li/btb":               "956aba91b094f2e6e615555baa7fb3d7143e744bcc645dec398e059a6d683aa8",
	"li/tagged":            "956aba91b094f2e6e615555baa7fb3d7143e744bcc645dec398e059a6d683aa8",
}

// pinnedProfile is one pinned program with its collected profile.
type pinnedProfile struct {
	name string
	prog *ir.Program
	pf   *profile.Profile
}

// loadPinned builds and profiles the pinned programs once per test binary.
var loadPinned = sync.OnceValues(func() ([]pinnedProfile, error) {
	var out []pinnedProfile
	for _, name := range pinnedPrograms {
		w, err := workload.ByName(name, workload.Config{Scale: 0.1})
		if err != nil {
			return nil, err
		}
		pf, _, err := w.CollectProfile()
		if err != nil {
			return nil, err
		}
		out = append(out, pinnedProfile{name: name, prog: w.Prog, pf: pf})
	}
	return out, nil
})

// alignPinned runs TryN at its defaults over every pinned program under
// every model, recording into rec, and returns each layout's digest.
func alignPinned(t *testing.T, rec *obs.Recorder) map[string]string {
	t.Helper()
	progs, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, pp := range progs {
		for _, m := range allModels() {
			opts := trynOptions(m)
			opts.Obs = rec
			res, err := AlignProgram(pp.prog, pp.pf, opts)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.Prog.Format()))
			out[pp.name+"/"+m.Name()] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

// TestTryNLayoutsPinned pins Try15 at the paper's defaults on real
// programs: any change to the window search that alters a single layout
// decision changes a digest.
func TestTryNLayoutsPinned(t *testing.T) {
	got := alignPinned(t, nil)
	for key, want := range pinnedLayouts {
		if got[key] != want {
			t.Errorf("%s: layout digest %s, want %s", key, got[key], want)
		}
	}
}

// TestTryNWorkCounters checks the search's work counters on the pinned
// programs, which are exactly the TryN work of the suite-align grid (six
// programs at scale 0.1, every architecture, seed 0): space is the number
// of combinations an exhaustive search prices there, combos repeats
// exactly from run to run, and neither changes a layout.
func TestTryNWorkCounters(t *testing.T) {
	const suiteAlignSpace = 7360095
	var combos [2]int64
	for run := range combos {
		rec := obs.New("test")
		digests := alignPinned(t, rec)
		if !maps.Equal(digests, pinnedLayouts) {
			t.Fatalf("run %d: telemetry changed a layout", run)
		}
		c := rec.Report().Counters
		if got := c["core.plan.tryn.space"]; got != suiteAlignSpace {
			t.Errorf("run %d: core.plan.tryn.space = %d, want %d", run, got, suiteAlignSpace)
		}
		combos[run] = c["core.plan.tryn.combos"]
		if combos[run] <= 0 || combos[run] > suiteAlignSpace {
			t.Errorf("run %d: core.plan.tryn.combos = %d, want in (0, %d]", run, combos[run], suiteAlignSpace)
		}
	}
	if combos[0] != combos[1] {
		t.Errorf("core.plan.tryn.combos differs between runs: %d vs %d", combos[0], combos[1])
	}
	t.Logf("priced %d of %d combinations", combos[0], suiteAlignSpace)
}

// trynOptions is TryN at its defaults under m, with the BT/FNT chain order
// for the BT/FNT model as the experiments use.
func trynOptions(m cost.Model) Options {
	opts := Options{Algorithm: AlgoTryN, Model: m}
	if _, ok := m.(cost.BTFNTModel); ok {
		opts.Order = OrderBTFNT
	}
	return opts
}

// exhaustiveBest is the reference the window search must agree with: an
// odometer over every choice combination of sub (last node fastest) that
// prices each with evalCombo and keeps the first strict minimum.
func exhaustiveBest(c *chains, sub []*tryNode) []int {
	best := make([]int, len(sub))
	cur := make([]int, len(sub))
	bestCost := evalCombo(c, sub, cur)
	for {
		// Odometer increment.
		k := len(sub) - 1
		for k >= 0 {
			cur[k]++
			if cur[k] < len(sub[k].choices) {
				break
			}
			cur[k] = 0
			k--
		}
		if k < 0 {
			return best
		}
		if ccost := evalCombo(c, sub, cur); ccost < bestCost {
			bestCost = ccost
			copy(best, cur)
		}
	}
}

// evalCombo prices one choice combination: all of the combination's links
// are tentatively applied first (in node order), then every node is priced
// against the resulting chain state, and the links are rolled back. Link
// choices that are infeasible in the tentative state fall back to the
// node's unaligned cost.
func evalCombo(c *chains, sub []*tryNode, cur []int) float64 {
	var undo []undoRecord
	linked := make([]bool, len(sub))
	for idx, n := range sub {
		t := n.linkTarget(n.choices[cur[idx]])
		if t == ir.NoBlock {
			continue
		}
		if t != n.info.id && c.canLink(n.info.id, t) {
			undo = append(undo, c.tentativeLink(n.info.id, t))
			linked[idx] = true
		}
	}
	total := 0.0
	for idx, n := range sub {
		total += choiceCost(c, n, n.choices[cur[idx]], linked[idx])
	}
	for k := len(undo) - 1; k >= 0; k-- {
		c.undo(undo[k])
	}
	return total
}

// choiceCost prices one choice of a node, given the live (tentative) chain
// state so the BT/FNT backward test can see where the taken target landed.
func choiceCost(c *chains, n *tryNode, ch tryChoice, linked bool) float64 {
	ni := n.info
	m := n.model
	switch ch {
	case chooseFallF:
		if !linked {
			return n.fallback
		}
		return m.CondBranch(ni.wF, ni.wT, chainBackward(c, ni, ni.t))
	case chooseFallT:
		if !linked {
			return n.fallback
		}
		return m.CondBranch(ni.wT, ni.wF, chainBackward(c, ni, ni.f))
	case chooseNeither:
		return ni.neitherCost(m)
	case chooseLink:
		if !linked {
			return n.fallback
		}
		return 0
	case chooseJump:
		return ni.jumpCost(m)
	default:
		return n.fallback
	}
}

// randomTryProc builds a procedure of conditional, jump, fall-through and
// return blocks with random targets, and a profile whose edge weights come
// from a small set so that equally cheap combinations are common.
func randomTryProc(rng *rand.Rand) (*ir.Proc, *profile.ProcProfile) {
	weights := []uint64{0, 1, 2, 3, 4, 6}
	n := 2 + rng.Intn(15)
	p := &ir.Proc{Name: "p", Blocks: make([]*ir.Block, n)}
	pp := profile.NewProcProfile()
	for i := range p.Blocks {
		id := ir.BlockID(i)
		target := ir.BlockID(rng.Intn(n))
		var in ir.Instr
		switch k := rng.Intn(8); {
		case k < 4 && i+1 < n:
			in = ir.Instr{Op: ir.OpBeqz, TargetBlock: target}
			if target == id+1 {
				pp.Branches[id] = profile.BranchCount{
					Taken: weights[rng.Intn(len(weights))],
					Fall:  weights[rng.Intn(len(weights))],
				}
			} else {
				pp.Edges[profile.Edge{From: id, To: target}] = weights[rng.Intn(len(weights))]
				pp.Edges[profile.Edge{From: id, To: id + 1}] = weights[rng.Intn(len(weights))]
			}
		case k < 6:
			in = ir.Instr{Op: ir.OpBr, TargetBlock: target}
			pp.Edges[profile.Edge{From: id, To: target}] = weights[rng.Intn(len(weights))]
		case k < 7 && i+1 < n:
			in = ir.Instr{Op: ir.OpNop}
			pp.Edges[profile.Edge{From: id, To: id + 1}] = weights[rng.Intn(len(weights))]
		default:
			in = ir.Instr{Op: ir.OpRet}
		}
		p.Blocks[i] = &ir.Block{Instrs: []ir.Instr{in}}
	}
	return p, pp
}

// chainsState is a copy of every field a tentative search may touch.
type chainsState struct {
	parent, size []int32
	next, prev   []ir.BlockID
}

func snapshotChains(c *chains) chainsState {
	return chainsState{
		parent: slices.Clone(c.parent), size: slices.Clone(c.size),
		next: slices.Clone(c.next), prev: slices.Clone(c.prev),
	}
}

func (s chainsState) equal(o chainsState) bool {
	return slices.Equal(s.parent, o.parent) && slices.Equal(s.size, o.size) &&
		slices.Equal(s.next, o.next) && slices.Equal(s.prev, o.prev)
}

// TestTryNSearchMatchesExhaustive is the window search's oracle: on random
// procedures, random pre-linked chain states, with and without placement
// hints, under every cost model, the depth-first search with its bound
// returns exactly the combination the exhaustive odometer returns, and
// leaves the chain state as it found it.
func TestTryNSearchMatchesExhaustive(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 50
	}
	var priced, space int64
	for seed := 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p, pp := randomTryProc(rng)
		infos := buildNodeInfos(p, pp)
		if rng.Intn(2) == 0 {
			pos := rng.Perm(len(p.Blocks))
			for i := range infos {
				infos[i].posHint = pos
			}
		}
		c := newChains(p)
		for k := rng.Intn(len(p.Blocks)); k > 0; k-- {
			s, d := ir.BlockID(rng.Intn(len(p.Blocks))), ir.BlockID(rng.Intn(len(p.Blocks)))
			if s != d && c.canLink(s, d) {
				c.link(s, d)
			}
		}
		var valid []ir.BlockID
		for i := range infos {
			if infos[i].valid {
				valid = append(valid, ir.BlockID(i))
			}
		}
		if len(valid) == 0 {
			continue
		}
		rng.Shuffle(len(valid), func(i, j int) { valid[i], valid[j] = valid[j], valid[i] })
		valid = valid[:1+rng.Intn(min(len(valid), 12))]
		for _, m := range allModels() {
			sub := make([]*tryNode, len(valid))
			for i, id := range valid {
				sub[i] = makeTryNode(&infos[id], m)
			}
			before := snapshotChains(c)
			search := &windowSearch{c: c}
			got := slices.Clone(search.search(sub))
			if !snapshotChains(c).equal(before) {
				t.Fatalf("seed %d %s: search changed the chain state", seed, m.Name())
			}
			want := exhaustiveBest(c, sub)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d %s: search picked %v, exhaustive %v", seed, m.Name(), got, want)
			}
			combos := int64(1)
			for _, n := range sub {
				combos *= int64(len(n.choices))
			}
			priced += search.combos
			space += combos
		}
	}
	t.Logf("priced %d of %d combinations", priced, space)
}

// TestTryNSearchAllocsIndependentOfCombos checks that the window search
// allocates per sub-cluster, not per combination: a sub-cluster of twelve
// three-choice conditionals (531,441 combinations) costs no more
// allocations than one of four (81).
func TestTryNSearchAllocsIndependentOfCombos(t *testing.T) {
	// Block 0 falls into a run of conditionals that all branch back to it.
	// Under BT/FNT each one is cheapest with its fall edge linked, but its
	// backward taken edge then costs more than the bound assumes, so the
	// search must price every combination that strays from that layout at
	// up to three nodes.
	const conds = 12
	p := &ir.Proc{Name: "p", Blocks: make([]*ir.Block, conds+2)}
	pp := profile.NewProcProfile()
	p.Blocks[0] = &ir.Block{Instrs: []ir.Instr{{Op: ir.OpNop}}}
	pp.Edges[profile.Edge{From: 0, To: 1}] = 1
	for i := 1; i <= conds; i++ {
		p.Blocks[i] = &ir.Block{Instrs: []ir.Instr{{Op: ir.OpBeqz, TargetBlock: 0}}}
		pp.Edges[profile.Edge{From: ir.BlockID(i), To: 0}] = 23
		pp.Edges[profile.Edge{From: ir.BlockID(i), To: ir.BlockID(i + 1)}] = 20
	}
	p.Blocks[conds+1] = &ir.Block{Instrs: []ir.Instr{{Op: ir.OpRet}}}
	infos := buildNodeInfos(p, pp)
	c := newChains(p)
	sub := make([]*tryNode, conds)
	for i := range sub {
		sub[i] = makeTryNode(&infos[i+1], cost.BTFNTModel{})
		if len(sub[i].choices) != 3 {
			t.Fatalf("node %d has %d choices, want 3", i+1, len(sub[i].choices))
		}
	}
	var priced int64
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			s := windowSearch{c: c}
			s.search(sub[:n])
			priced = s.combos
		})
	}
	small := allocs(4)
	pricedSmall := priced
	large := allocs(conds)
	if priced <= pricedSmall {
		t.Fatalf("the %d-node search priced %d combinations, the 4-node one %d", conds, priced, pricedSmall)
	}
	if large > small {
		t.Errorf("searching %d nodes allocated %v times, 4 nodes %v times", conds, large, small)
	}
	t.Logf("%v allocations per search; the searches priced %d and %d combinations", large, pricedSmall, priced)
}
