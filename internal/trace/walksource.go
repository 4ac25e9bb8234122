package trace

import (
	"fmt"
	"math/rand"

	"balign/internal/ir"
)

// WalkSource performs a Walker's seeded random walk, suspendably, emitting
// packed Batch words. It is the only CFG walk: Walker.Run decodes it into
// events, every walker workload streams it, and NewReplaySource replays a
// VM execution's decision log through it. Compilation collapses each basic
// block into a short list of steps (runs of straight-line instructions
// folded into a counter, one step per control transfer with its batch
// words and destinations precomputed), so the per-event work is a step
// dispatch plus an int32 append.
//
// The walk's rules:
//   - Each conditional draws one Float64 and compares it with the Model's
//     TakenProb, even where its outcome is forced: a conditional in its
//     procedure's last block has no fall-through and is always taken.
//   - Each indirect jump draws through pickIndex, which fixes its draw.
//   - The instruction budget is checked after each instruction, so a walk
//     can end in the middle of a block. A call at the depth cap counts as
//     one straight-line instruction and skips that check.
//   - When the program halts, its entry procedure returns or control runs
//     past its procedure's last block, the run ends and, unless the budget
//     or MaxRuns is reached, the walk restarts at the entry point.
//
// The committed goldens and the walker tests pin these rules.
type WalkSource struct {
	steps     [][][]walkStep // per proc, per block
	model     Model
	rng       *rand.Rand
	maxInstrs uint64
	maxRuns   int
	maxDepth  int
	batchCap  int

	entryProc  int32
	entryBlock ir.BlockID

	// A replay (NewReplaySource) reads its model's log directly, drawing
	// nothing from rng, and fails, as the VM does, a run that passes
	// runLimit instructions; maxInstrs then holds the current run's limit.
	replay   *LogReplay
	runLimit uint64
	err      error

	// edges, set only by Walker.Run, receives each conditional's outcome
	// and each intraprocedural edge as the walk takes it.
	edges EdgeSink

	// Suspended walk state between Fill calls.
	stack  []walkFrame
	proc   int32
	block  ir.BlockID
	step   int32
	instrs uint64
	runs   int
	done   bool
}

// walkOp discriminates the compiled step kinds.
type walkOp uint8

const (
	walkCond walkOp = iota
	walkBr
	walkCall
	walkIJump
	walkRet
	walkHalt
	walkFall // ran past the block's instructions: fall to the next block
	walkEnd  // ran past the proc's last block: restart the program
)

// walkStep is one compiled unit of a block: the straight-line instructions
// since the previous transfer (ops) followed by at most one control
// transfer with everything about it precomputed.
type walkStep struct {
	op  walkOp
	ops uint32 // straight-line instructions executed before the transfer
	// forceTaken marks a conditional whose fall-through would run off the
	// proc's block list; it is always taken (its RNG draw still happens).
	forceTaken bool
	opTaken    int32 // packed batch word for the taken outcome
	opFall     int32 // packed batch word for a conditional's fall-through
	destTaken  ir.BlockID
	destFall   ir.BlockID
	calleeProc int32
	fallPC     uint64 // site PC + 4: a call's return address
	targets    []walkTarget
}

// walkTarget is one precomputed indirect-jump destination.
type walkTarget struct {
	block ir.BlockID
	addr  uint64
}

// walkFrame is one suspended call site.
type walkFrame struct {
	proc    int32
	block   ir.BlockID
	step    int32
	retAddr uint64
}

// NewWalkSource compiles w's program against lay and returns a Source
// performing w's walk. batchCap <= 0 means DefaultBatchCap. The walker
// spec is captured at construction; the Source does not observe later
// mutation of w.
func NewWalkSource(w *Walker, lay *Layout, batchCap int) (*WalkSource, error) {
	if batchCap <= 0 {
		batchCap = DefaultBatchCap
	}
	maxDepth := w.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	prog := w.Prog
	if prog == nil {
		return nil, fmt.Errorf("trace: nil program")
	}
	s := &WalkSource{
		model:      w.Model,
		rng:        rand.New(rand.NewSource(w.Seed)),
		maxInstrs:  w.MaxInstrs,
		maxRuns:    w.MaxRuns,
		maxDepth:   maxDepth,
		batchCap:   batchCap,
		entryProc:  int32(prog.EntryProc),
		entryBlock: prog.Procs[prog.EntryProc].Entry(),
	}
	s.steps = make([][][]walkStep, len(prog.Procs))
	for pi, p := range prog.Procs {
		blocks := make([][]walkStep, len(p.Blocks))
		for bi, b := range p.Blocks {
			steps, err := compileBlock(prog, lay, pi, bi, b, p)
			if err != nil {
				return nil, err
			}
			blocks[bi] = steps
		}
		s.steps[pi] = blocks
	}
	s.proc = s.entryProc
	s.block = s.entryBlock
	return s, nil
}

// compileBlock folds one block's instructions into its step list. Every
// block ends with a trailing walkFall/walkEnd step carrying the
// straight-line instructions after its last transfer, so resuming past the
// final instruction (a call in last position, or an empty block) falls
// into the next block.
func compileBlock(prog *ir.Program, lay *Layout, pi, bi int, b *ir.Block, p *ir.Proc) ([]walkStep, error) {
	var steps []walkStep
	ops := uint32(0)
	for ii := range b.Instrs {
		in := &b.Instrs[ii]
		kind := in.Kind()
		if kind == ir.Op {
			ops++
			continue
		}
		pc := b.Addr + uint64(ii)*ir.InstrBytes
		st := walkStep{ops: ops, fallPC: pc + ir.InstrBytes}
		ops = 0
		if kind != ir.Halt {
			si, ok := lay.Lookup(pc)
			if !ok {
				return nil, fmt.Errorf("trace: walk site pc %#x (kind %v) missing from layout", pc, kind)
			}
			st.opTaken = si<<OpShift | int32(kind)<<1 | 1
			st.opFall = si<<OpShift | int32(kind)<<1
		}
		switch kind {
		case ir.CondBr:
			st.op = walkCond
			st.destTaken = in.TargetBlock
			if bi+1 >= len(p.Blocks) {
				st.forceTaken = true
			} else {
				st.destFall = ir.BlockID(bi + 1)
			}
		case ir.Br:
			st.op = walkBr
			st.destTaken = in.TargetBlock
		case ir.Call:
			st.op = walkCall
			st.calleeProc = int32(in.TargetProc)
			st.destTaken = prog.Procs[in.TargetProc].Entry()
		case ir.IJump:
			st.op = walkIJump
			st.targets = make([]walkTarget, len(in.Targets))
			for ti, tb := range in.Targets {
				st.targets[ti] = walkTarget{block: tb, addr: p.Blocks[tb].Addr}
			}
		case ir.Ret:
			st.op = walkRet
		case ir.Halt:
			st.op = walkHalt
		default:
			return nil, fmt.Errorf("trace: walk compile hit unknown kind %v", kind)
		}
		steps = append(steps, st)
	}
	tail := walkStep{ops: ops}
	if bi+1 < len(p.Blocks) {
		tail.op = walkFall
		tail.destFall = ir.BlockID(bi + 1)
	} else {
		tail.op = walkEnd
	}
	return append(steps, tail), nil
}

// Fill implements Source, resuming the suspended walk and packing events
// into b until the batch is full or the walk ends.
func (s *WalkSource) Fill(b *Batch) (bool, error) {
	b.Reset()
	if s.err != nil || s.done {
		return false, s.err
	}
	var (
		procs     = s.steps
		model     = s.model
		replay    = s.replay
		edges     = s.edges
		rng       = s.rng
		max       = s.maxInstrs
		maxDepth  = s.maxDepth
		batchCap  = s.batchCap
		stack     = s.stack
		proc      = s.proc
		block     = s.block
		stepIdx   = s.step
		instrs    = s.instrs
		runs      = s.runs
		done      = false
		blockStep = procs[proc][block]
	)
loop:
	for {
		if len(b.Ops) >= batchCap {
			break
		}
		st := &blockStep[stepIdx]
		if st.ops != 0 {
			// The budget is checked after every instruction, so a
			// straight-line run executes until the budget is reached — or
			// exactly one instruction if a depth-capped call already
			// overshot it.
			if instrs >= max {
				instrs++
				done = true
				break
			}
			if need := max - instrs; uint64(st.ops) >= need {
				instrs = max
				done = true
				break
			}
			instrs += uint64(st.ops)
		}
		switch st.op {
		case walkCond:
			instrs++
			var taken bool
			if replay != nil {
				// A replay's outcome is forced: it draws nothing.
				taken = replay.taken(int(proc), block)
			} else {
				taken = rng.Float64() < model.TakenProb(int(proc), block)
			}
			if st.forceTaken {
				taken = true
			}
			from := block
			if taken {
				b.Ops = append(b.Ops, st.opTaken)
				block = st.destTaken
			} else {
				b.Ops = append(b.Ops, st.opFall)
				block = st.destFall
			}
			if edges != nil {
				edges.Branch(int(proc), from, taken)
				edges.Edge(int(proc), from, block)
			}
			blockStep = procs[proc][block]
			stepIdx = 0
			if instrs >= max {
				done = true
				break loop
			}

		case walkBr:
			instrs++
			b.Ops = append(b.Ops, st.opTaken)
			if edges != nil {
				edges.Edge(int(proc), block, st.destTaken)
			}
			block = st.destTaken
			blockStep = procs[proc][block]
			stepIdx = 0
			if instrs >= max {
				done = true
				break loop
			}

		case walkCall:
			instrs++
			b.Ops = append(b.Ops, st.opTaken)
			if len(stack) >= maxDepth {
				// Depth cap: skip the callee body, and the budget check.
				stepIdx++
				continue
			}
			stack = append(stack, walkFrame{proc: proc, block: block, step: stepIdx + 1, retAddr: st.fallPC})
			proc = st.calleeProc
			block = st.destTaken
			blockStep = procs[proc][block]
			stepIdx = 0
			if instrs >= max {
				done = true
				break loop
			}

		case walkIJump:
			instrs++
			var idx int
			if replay != nil {
				idx = replay.target(len(st.targets))
			} else {
				idx = pickIndex(rng, model.IJumpWeights(int(proc), block), len(st.targets))
			}
			t := st.targets[idx]
			b.Ops = append(b.Ops, st.opTaken)
			b.Targets = append(b.Targets, t.addr)
			if edges != nil {
				edges.Edge(int(proc), block, t.block)
			}
			block = t.block
			blockStep = procs[proc][block]
			stepIdx = 0
			if instrs >= max {
				done = true
				break loop
			}

		case walkRet:
			instrs++
			if len(stack) == 0 {
				// Entry procedure returned: one complete run, no event.
				runs++
				if max, done = s.endRun(instrs, runs, max); done {
					break loop
				}
				proc, block, stepIdx = s.entryProc, s.entryBlock, 0
				blockStep = procs[proc][block]
				continue
			}
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			b.Ops = append(b.Ops, st.opTaken)
			b.Targets = append(b.Targets, fr.retAddr)
			proc, block, stepIdx = fr.proc, fr.block, fr.step
			blockStep = procs[proc][block]
			if instrs >= max {
				done = true
				break loop
			}

		case walkHalt:
			instrs++
			runs++
			if max, done = s.endRun(instrs, runs, max); done {
				break loop
			}
			stack = stack[:0]
			proc, block, stepIdx = s.entryProc, s.entryBlock, 0
			blockStep = procs[proc][block]

		case walkFall:
			if edges != nil {
				edges.Edge(int(proc), block, st.destFall)
			}
			block = st.destFall
			blockStep = procs[proc][block]
			stepIdx = 0

		case walkEnd:
			// Ran off the proc's block list: the run ends, with no
			// instruction executed.
			runs++
			if max, done = s.endRun(instrs, runs, max); done {
				break loop
			}
			stack = stack[:0]
			proc, block, stepIdx = s.entryProc, s.entryBlock, 0
			blockStep = procs[proc][block]
		}
	}
	s.stack = stack
	s.proc, s.block, s.step = proc, block, stepIdx
	s.instrs, s.runs, s.maxInstrs = instrs, runs, max
	s.done = done
	if s.replay != nil {
		if s.err = s.replayErr(); s.err != nil {
			b.Reset()
			return false, s.err
		}
	}
	return len(b.Ops) > 0, nil
}

// endRun is called as each run completes: it reports whether the walk
// ends with this run, and the instruction limit from here on. A replay's
// next run gets a fresh step limit.
func (s *WalkSource) endRun(instrs uint64, runs int, max uint64) (uint64, bool) {
	switch {
	case s.maxRuns > 0 && runs >= s.maxRuns:
		return max, true
	case s.runLimit != 0:
		return instrs + s.runLimit, false
	}
	return max, instrs >= max
}

// replayErr checks a replay after a Fill: it must not have left the log's
// path, and once done it must have completed every run (a run stopped at
// its step limit is the VM's runaway error) and consumed the log exactly.
func (s *WalkSource) replayErr() error {
	if err := s.replay.errLost(); err != nil || !s.done {
		return err
	}
	if s.runs < s.maxRuns {
		// The VM's own message: a replayed run fails where, and as, the
		// VM's run of the layout would.
		return fmt.Errorf("vm: exceeded %d steps (runaway program?)", s.runLimit)
	}
	return s.replay.Err()
}

// Instrs implements Source.
func (s *WalkSource) Instrs() uint64 { return s.instrs }

// Runs returns the number of complete program runs the walk has finished;
// final once Fill has returned false.
func (s *WalkSource) Runs() int { return s.runs }

// Close implements Source; a WalkSource holds no resources.
func (s *WalkSource) Close() {}
