package icache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"balign/internal/ir"
	"balign/internal/trace"
)

func TestSequentialFetchTouchesEachLineOnce(t *testing.T) {
	s := New(Config{LineBytes: 32, Sets: 8, Ways: 1})
	// One event 64 instructions (256 bytes, 8 lines) past the start.
	s.Event(trace.Event{PC: 0x1000, Kind: ir.Br, Taken: true, Target: 0x2000, Fall: 0x1004})
	s.Event(trace.Event{PC: 0x2000 + 63*4, Kind: ir.Br, Taken: true, Target: 0x1000, Fall: 0x2000 + 64*4})
	// First event: fetch just 0x1000 (1 line). Second: 0x2000..0x20fc = 8 lines.
	if s.Accesses != 1+8 {
		t.Errorf("Accesses = %d, want 9", s.Accesses)
	}
	if s.Fetches != 1+64 {
		t.Errorf("Fetches = %d, want 65", s.Fetches)
	}
}

func TestHitsAfterWarmup(t *testing.T) {
	s := New(Config{LineBytes: 32, Sets: 8, Ways: 2})
	ev := trace.Event{PC: 0x1000, Kind: ir.Br, Taken: true, Target: 0x1000, Fall: 0x1004}
	for i := 0; i < 10; i++ {
		s.Event(ev)
	}
	if s.Misses != 1 {
		t.Errorf("Misses = %d, want 1 (cold miss only)", s.Misses)
	}
	if s.MissRate() >= 0.2 {
		t.Errorf("MissRate = %v, want small", s.MissRate())
	}
}

func TestConflictMisses(t *testing.T) {
	// Direct-mapped, 4 sets of 32B: addresses 0 and 4*32 alias.
	s := New(Config{LineBytes: 32, Sets: 4, Ways: 1})
	a := trace.Event{PC: 0x0, Kind: ir.Br, Taken: true, Target: 0x80, Fall: 0x4}
	b := trace.Event{PC: 0x80, Kind: ir.Br, Taken: true, Target: 0x0, Fall: 0x84}
	for i := 0; i < 10; i++ {
		s.Event(a)
		s.Event(b)
	}
	if s.Misses < 18 {
		t.Errorf("Misses = %d, want thrashing (~20)", s.Misses)
	}
}

func TestNotTakenFollowsFall(t *testing.T) {
	s := New(DefaultConfig())
	s.Event(trace.Event{PC: 0x1000, Kind: ir.CondBr, Taken: false, Target: 0x8000, Fall: 0x1004})
	s.Event(trace.Event{PC: 0x1010, Kind: ir.CondBr, Taken: true, Target: 0x8000, Fall: 0x1014})
	// The second event's sequential fetch must start at the first's fall
	// address (0x1004), not its taken target.
	if s.Fetches != 1+4 {
		t.Errorf("Fetches = %d, want 5 (0x1000, then 0x1004..0x1010)", s.Fetches)
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, cfg := range []Config{
		{LineBytes: 24, Sets: 8, Ways: 1},
		{LineBytes: 32, Sets: 7, Ways: 1},
		{LineBytes: 32, Sets: 8, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestResetAndMetrics(t *testing.T) {
	s := New(DefaultConfig())
	if s.SizeBytes() != 32*128*2 {
		t.Errorf("SizeBytes = %d", s.SizeBytes())
	}
	s.Event(trace.Event{PC: 0x1000, Kind: ir.Br, Taken: true, Target: 0x2000, Fall: 0x1004})
	if s.MPKI() == 0 {
		t.Error("MPKI should be nonzero after a cold miss")
	}
	s.Reset()
	if s.Fetches != 0 || s.Misses != 0 || s.MissRate() != 0 || s.MPKI() != 0 {
		t.Error("Reset did not clear counters")
	}
}

// randomProgram builds an unvalidated program that exercises every break
// kind the layout compiles: conditionals (some not their block's last
// instruction, some in a procedure's last block, so their FallTarget is
// not PC+4), branches, calls, indirect jumps and returns, among plain
// instructions and empty blocks.
func randomProgram(rng *rand.Rand) *ir.Program {
	nprocs := 1 + rng.Intn(3)
	prog := &ir.Program{Name: "rand"}
	for p := 0; p < nprocs; p++ {
		nblocks := 1 + rng.Intn(6)
		proc := &ir.Proc{Name: fmt.Sprintf("p%d", p)}
		for b := 0; b < nblocks; b++ {
			blk := &ir.Block{}
			for i := rng.Intn(12); i > 0; i-- {
				var in ir.Instr
				switch rng.Intn(8) {
				case 0, 1:
					in = ir.Instr{Op: ir.OpBnez, Rd: 1, TargetBlock: ir.BlockID(rng.Intn(nblocks))}
				case 2:
					in = ir.Instr{Op: ir.OpBr, TargetBlock: ir.BlockID(rng.Intn(nblocks))}
				case 3:
					in = ir.Instr{Op: ir.OpCall, TargetProc: rng.Intn(nprocs)}
				case 4:
					in = ir.Instr{Op: ir.OpIJump, Rd: 1, Targets: []ir.BlockID{ir.BlockID(rng.Intn(nblocks))}}
				case 5:
					in = ir.Instr{Op: ir.OpRet}
				default:
					in = ir.Instr{Op: ir.OpAddi, Rd: 2, Rs: 2, Imm: 1}
				}
				blk.Instrs = append(blk.Instrs, in)
			}
			proc.Blocks = append(proc.Blocks, blk)
		}
		prog.Procs = append(prog.Procs, proc)
	}
	prog.AssignAddresses(0x1000 + uint64(rng.Intn(64))*ir.InstrBytes)
	return prog
}

// randomStream draws n events over lay's sites, each exactly as
// Layout.Decode rebuilds it. Three in four follow the fetch stream (the
// first site at or after the previous event's next fetch address, as
// Event computes it); the rest jump to a random site, so out-of-order
// segments start at sites behind the fetch address. Indirect jumps and
// returns go to a random aligned address around the program.
func randomStream(rng *rand.Rand, lay *trace.Layout, n int) []trace.Event {
	sites := lay.Sites()
	lo, hi := sites[0].PC, sites[len(sites)-1].Fall
	var next uint64
	evs := make([]trace.Event, 0, n)
	for len(evs) < n {
		si := rng.Intn(len(sites))
		if rng.Intn(4) != 0 {
			if j := sort.Search(len(sites), func(i int) bool { return sites[i].PC >= next }); j < len(sites) {
				si = j
			}
		}
		s := sites[si]
		e := trace.Event{PC: s.PC, Kind: s.Kind, Taken: true, Target: s.TakenTarget, TakenTarget: s.TakenTarget, Fall: s.Fall}
		next = e.Target
		switch s.Kind {
		case ir.CondBr:
			if rng.Intn(2) == 0 {
				e.Taken, e.Target, next = false, s.FallTarget, s.Fall
			}
		case ir.IJump, ir.Ret:
			e.Target = lo - 64 + uint64(rng.Int63n(int64(hi-lo+128)))&^(ir.InstrBytes-1)
			e.TakenTarget, next = e.Target, e.Target
		}
		evs = append(evs, e)
	}
	return evs
}

// TestBatchMatchesEvent is the property behind the grid's batch-native
// i-cache consumer: over random layout-packed streams cut into random
// batches, Batch must leave a simulator in exactly the state Event leaves
// one fed the same events (every counter, line and the fetch cursor), in
// caches small enough to thrash and at the default geometry.
func TestBatchMatchesEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfgs := []Config{DefaultConfig(), {LineBytes: 16, Sets: 4, Ways: 2}, {LineBytes: 8, Sets: 2, Ways: 1}}
	for trial := 0; trial < 300; trial++ {
		prog := randomProgram(rng)
		lay, err := trace.CompileLayout(prog)
		if err != nil {
			t.Fatalf("trial %d: CompileLayout: %v", trial, err)
		}
		if lay.NumSites() == 0 {
			continue
		}
		evs := randomStream(rng, lay, 1+rng.Intn(400))
		var batches []*trace.Batch
		for i := 0; i < len(evs); {
			b := &trace.Batch{}
			for end := min(len(evs), i+1+rng.Intn(48)); i < end; i++ {
				if err := lay.Append(b, evs[i]); err != nil {
					t.Fatalf("trial %d: Append(%+v): %v", trial, evs[i], err)
				}
			}
			batches = append(batches, b)
		}
		for _, cfg := range cfgs {
			want, got := New(cfg), New(cfg)
			for _, e := range evs {
				want.Event(e)
			}
			for _, b := range batches {
				if err := got.Batch(lay, b); err != nil {
					t.Fatalf("trial %d: Batch: %v", trial, err)
				}
			}
			if got.Fetches != want.Fetches || got.Accesses != want.Accesses || got.Misses != want.Misses {
				t.Fatalf("trial %d %+v: Batch counted fetches/accesses/misses %d/%d/%d, Event %d/%d/%d",
					trial, cfg, got.Fetches, got.Accesses, got.Misses, want.Fetches, want.Accesses, want.Misses)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %+v: Batch and Event leave different cache state", trial, cfg)
			}
		}
	}
}

// TestBatchNotTakenFetchesFall pins the rule the property test samples: a
// not-taken conditional that is not its block's last instruction continues
// fetching at PC+4, not at its compiled FallTarget (the next block).
func TestBatchNotTakenFetchesFall(t *testing.T) {
	prog := &ir.Program{Name: "midblock", Procs: []*ir.Proc{{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpBnez, Rd: 1, TargetBlock: 1}, // 0x1000, FallTarget 0x1010
			{Op: ir.OpAddi, Rd: 2, Rs: 2, Imm: 1},
			{Op: ir.OpAddi, Rd: 2, Rs: 2, Imm: 1},
			{Op: ir.OpAddi, Rd: 2, Rs: 2, Imm: 1},
		}},
		{Instrs: []ir.Instr{{Op: ir.OpBr, TargetBlock: 0}}}, // 0x1010
	}}}}
	prog.AssignAddresses(0x1000)
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Batch
	for _, e := range []trace.Event{
		{PC: 0x1000, Kind: ir.CondBr, Taken: false, Target: 0x1010, TakenTarget: 0x1010, Fall: 0x1004},
		{PC: 0x1010, Kind: ir.Br, Taken: true, Target: 0x1000, TakenTarget: 0x1000, Fall: 0x1014},
	} {
		if err := lay.Append(&b, e); err != nil {
			t.Fatal(err)
		}
	}
	s := New(DefaultConfig())
	if err := s.Batch(lay, &b); err != nil {
		t.Fatal(err)
	}
	if s.Fetches != 1+4 {
		t.Errorf("Fetches = %d, want 5 (0x1000, then 0x1004..0x1010)", s.Fetches)
	}
}

// TestBatchRejectsMalformed: ops that cannot have come from the layout must
// fail the batch with an error, never a panic.
func TestBatchRejectsMalformed(t *testing.T) {
	prog := &ir.Program{Name: "kinds", Procs: []*ir.Proc{{Name: "main", Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpBnez, Rd: 1, TargetBlock: 1}}},
		{Instrs: []ir.Instr{{Op: ir.OpRet}}},
	}}}}
	prog.AssignAddresses(0x1000)
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	op := func(site int32, kind ir.Kind, taken int32) int32 {
		return site<<trace.OpShift | int32(kind)<<1 | taken
	}
	for name, b := range map[string]trace.Batch{
		"site past the table": {Ops: []int32{op(int32(lay.NumSites()), ir.CondBr, 1)}},
		"negative site":       {Ops: []int32{-1}},
		"kind off its site":   {Ops: []int32{op(0, ir.Br, 1)}},
		"too few targets":     {Ops: []int32{op(0, ir.CondBr, 0), op(1, ir.Ret, 1)}},
		"too many targets":    {Ops: []int32{op(1, ir.Ret, 1)}, Targets: []uint64{0x1000, 0x1004}},
		"stray target":        {Ops: []int32{op(0, ir.CondBr, 1)}, Targets: []uint64{0x1000}},
	} {
		if err := New(DefaultConfig()).Batch(lay, &b); err == nil {
			t.Errorf("%s: Batch accepted %+v", name, b)
		}
	}
}
