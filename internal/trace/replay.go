package trace

import (
	"fmt"
	"math"
	"slices"

	"balign/internal/ir"
)

// DecisionLog is one execution's data-dependent control decisions, in
// execution order: the taken bit of every executed conditional branch and
// the Targets index of every executed indirect jump. Everything else about
// the path follows from the program: where a branch, call or return goes,
// and which block a block falls into. So the log of an execution of the
// original program, replayed through any layout of it, is the event stream
// the VM would produce running that layout on the same input, as ATOM
// traced each aligned binary on the original's input.
//
// Record by passing the log as the EdgeSink of the execution. A log is
// written once and read-only afterwards: any number of replays may read it
// concurrently.
type DecisionLog struct {
	prog *ir.Program
	// ijumps holds, per procedure and block, the Targets of the block's
	// indirect jump (nil for every other block), for recording.
	ijumps [][][]ir.BlockID
	// bits holds one taken bit per conditional, least significant first.
	bits  []uint64
	conds int
	// targets holds one Targets index per indirect jump.
	targets []uint32
}

// NewDecisionLog returns an empty log of prog's execution, ready to record.
func NewDecisionLog(prog *ir.Program) *DecisionLog {
	l := &DecisionLog{prog: prog, ijumps: make([][][]ir.BlockID, len(prog.Procs))}
	for pi, p := range prog.Procs {
		l.ijumps[pi] = make([][]ir.BlockID, len(p.Blocks))
		for bi, b := range p.Blocks {
			if t, ok := b.Terminator(); ok && t.Kind() == ir.IJump {
				l.ijumps[pi][bi] = t.Targets
			}
		}
	}
	return l
}

// Edge implements EdgeSink: an edge out of an indirect jump logs the index
// of its successor in the jump's Targets (the first, if it is listed more
// than once). Every other edge follows from the program or, for a
// conditional, from its Branch.
func (l *DecisionLog) Edge(procIdx int, from, to ir.BlockID) {
	if ts := l.ijumps[procIdx][from]; ts != nil {
		l.targets = append(l.targets, uint32(slices.Index(ts, to)))
	}
}

// Branch implements EdgeSink, logging the conditional's taken bit: which
// of its two successors it went to, even when both are one block.
func (l *DecisionLog) Branch(_ int, _ ir.BlockID, taken bool) {
	if l.conds&63 == 0 {
		l.bits = append(l.bits, 0)
	}
	if taken {
		l.bits[l.conds>>6] |= 1 << (l.conds & 63)
	}
	l.conds++
}

// Instrs implements EdgeSink; instruction counts follow from the path.
func (l *DecisionLog) Instrs(uint64) {}

// Len returns the number of logged decisions: conditionals plus indirect
// jumps.
func (l *DecisionLog) Len() int { return l.conds + len(l.targets) }

// SizeBytes returns the bytes the logged decisions occupy.
func (l *DecisionLog) SizeBytes() int { return 8*len(l.bits) + 4*len(l.targets) }

// LogReplay is a Model that walks a layout of the log's program down the
// logged path: each conditional takes the next logged bit, flipped where
// the layout inverted the branch, and each indirect jump the next logged
// index (the rewriter keeps Targets element by element). TakenProb
// answers 1 or 0, and IJumpWeights a one-hot vector, so a Walker driven
// by a LogReplay follows the path whatever its RNG draws; a replaying
// WalkSource reads the log directly and draws nothing. A LogReplay is
// single-use.
type LogReplay struct {
	log    *DecisionLog
	layout *ir.Program
	// flip marks, per procedure and block of the layout, a conditional
	// whose sense the layout inverted.
	flip  [][]bool
	cond  int // next conditional
	ijump int // next indirect jump
	// lost records why the walk left the logged path, if it has.
	lost lostReason
}

// lostReason says why a replay left the logged path; zero while it has
// not.
type lostReason uint8

const (
	// outOfDecisions: the walk asked past the end of the log.
	outOfDecisions lostReason = iota + 1
	// pastTargets: the logged index is past the jump's targets.
	pastTargets
)

// Replay checks that layout is a layout of the log's program and returns
// a Model replaying the log through it. A layout keeps every procedure
// (matched by name) and every block (matched by Block.Orig) of the
// original, in any order, and changes only control flow: each conditional
// is its original's, either kept or inverted with its successors swapped;
// each indirect jump keeps its original's targets in order; an
// unconditional branch to the block that now follows it may be deleted;
// every other instruction is unchanged; and each inserted block (Orig
// ir.NoBlock) is a lone br. Anything else is an error: the log would
// replay as a stream the VM would not produce.
func (l *DecisionLog) Replay(layout *ir.Program) (*LogReplay, error) {
	orig := l.prog
	bad := func(format string, args ...any) error {
		return fmt.Errorf("trace: program is not a layout of %q: %s", orig.Name, fmt.Sprintf(format, args...))
	}
	if len(layout.Procs) != len(orig.Procs) {
		return nil, bad("%d procedures, the original has %d", len(layout.Procs), len(orig.Procs))
	}
	procOf := make(map[string]int, len(orig.Procs))
	for i, p := range orig.Procs {
		procOf[p.Name] = i
	}
	// origProc maps each layout procedure to its original, by name.
	origProc := make([]int, len(layout.Procs))
	used := make([]bool, len(orig.Procs))
	for i, p := range layout.Procs {
		o, ok := procOf[p.Name]
		if !ok || used[o] {
			return nil, bad("procedure %q has no original of its own", p.Name)
		}
		used[o], origProc[i] = true, o
	}
	if origProc[layout.EntryProc] != orig.EntryProc {
		return nil, bad("entry procedure %q is not the original's", layout.Procs[layout.EntryProc].Name)
	}
	r := &LogReplay{log: l, layout: layout, flip: make([][]bool, len(layout.Procs))}
	for pi, p := range layout.Procs {
		flip, err := checkLayoutProc(p, orig.Procs[origProc[pi]], origProc)
		if err != nil {
			return nil, bad("procedure %q: %v", p.Name, err)
		}
		r.flip[pi] = flip
	}
	return r, nil
}

// checkLayoutProc checks p block by block against its original op and
// returns p's inverted conditionals. origProc maps the layout's procedure
// indices to the original's.
func checkLayoutProc(p, op *ir.Proc, origProc []int) (flip []bool, err error) {
	// leadsTo checks that entering layout block next, a successor of
	// layout block b, reaches original block want: next is want's copy, or
	// an inserted lone br to it.
	leadsTo := func(b, next, want ir.BlockID) error {
		if next >= 0 && int(next) < len(p.Blocks) && p.Blocks[next].Orig == ir.NoBlock {
			in := p.Blocks[next].Instrs
			if len(in) != 1 || in[0].Op != ir.OpBr {
				return fmt.Errorf("inserted block %d is not a lone br", next)
			}
			next = in[0].TargetBlock
		}
		if next < 0 || int(next) >= len(p.Blocks) || p.Blocks[next].Orig != want {
			return fmt.Errorf("block %d does not go where its original goes (original block %d)", b, want)
		}
		return nil
	}

	flip = make([]bool, len(p.Blocks))
	seen := make([]bool, len(op.Blocks))
	kept := 0
	for bi, b := range p.Blocks {
		id := ir.BlockID(bi)
		if b.Orig == ir.NoBlock {
			if len(b.Instrs) != 1 || b.Instrs[0].Op != ir.OpBr {
				return nil, fmt.Errorf("inserted block %d is not a lone br", bi)
			}
			continue
		}
		if b.Orig < 0 || int(b.Orig) >= len(op.Blocks) || seen[b.Orig] {
			return nil, fmt.Errorf("block %d's original %d is out of range or laid out twice", bi, b.Orig)
		}
		seen[b.Orig] = true
		kept++
		ob := op.Blocks[b.Orig]
		n := len(b.Instrs)
		switch t, ok := ob.Terminator(); {
		case n == len(ob.Instrs):
			if _, ends := b.Terminator(); !ends {
				err = leadsTo(id, id+1, b.Orig+1)
			}
		case n == len(ob.Instrs)-1 && ok && t.Op == ir.OpBr:
			// A br to the block that now follows was deleted.
			err = leadsTo(id, id+1, t.TargetBlock)
		default:
			err = fmt.Errorf("block %d has %d instructions, its original %d", bi, n, len(ob.Instrs))
		}
		if err != nil {
			return nil, err
		}
		for ii := range n {
			in, oi := &b.Instrs[ii], &ob.Instrs[ii]
			if in.Rd != oi.Rd || in.Rs != oi.Rs || in.Rt != oi.Rt || in.Imm != oi.Imm {
				return nil, fmt.Errorf("block %d instruction %d: operands differ from the original's", bi, ii)
			}
			switch {
			case oi.Kind() == ir.CondBr && in.Op == oi.Op:
				if err = leadsTo(id, in.TargetBlock, oi.TargetBlock); err == nil {
					err = leadsTo(id, id+1, b.Orig+1)
				}
			case oi.Kind() == ir.CondBr && in.Op == ir.InvertBranch(oi.Op):
				flip[bi] = true
				if err = leadsTo(id, in.TargetBlock, b.Orig+1); err == nil {
					err = leadsTo(id, id+1, oi.TargetBlock)
				}
			case in.Op != oi.Op:
				err = fmt.Errorf("block %d instruction %d is %v, its original %v", bi, ii, in.Op, oi.Op)
			case in.Op == ir.OpBr:
				err = leadsTo(id, in.TargetBlock, oi.TargetBlock)
			case in.Op == ir.OpCall:
				if in.TargetProc < 0 || in.TargetProc >= len(origProc) || origProc[in.TargetProc] != oi.TargetProc {
					err = fmt.Errorf("block %d calls another procedure than its original", bi)
				}
			case in.Op == ir.OpIJump:
				if len(in.Targets) != len(oi.Targets) {
					err = fmt.Errorf("block %d's ijump has %d targets, its original %d", bi, len(in.Targets), len(oi.Targets))
				}
				for k := 0; err == nil && k < len(in.Targets); k++ {
					err = leadsTo(id, in.Targets[k], oi.Targets[k])
				}
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if kept != len(op.Blocks) {
		return nil, fmt.Errorf("%d of the original's %d blocks are laid out", kept, len(op.Blocks))
	}
	if len(p.Blocks) == 0 || p.Blocks[p.Entry()].Orig != op.Entry() {
		return nil, fmt.Errorf("the entry block is not the original's")
	}
	return flip, nil
}

// taken returns the layout's direction for the next logged conditional,
// at the given site: the logged bit, flipped if the layout inverted the
// site. Past the end of the log it answers fall-through and marks the
// replay lost.
func (r *LogReplay) taken(procIdx int, block ir.BlockID) bool {
	i := r.cond
	if i >= r.log.conds {
		r.lost = outOfDecisions
		return false
	}
	r.cond++
	return (r.log.bits[i>>6]>>(i&63)&1 != 0) != r.flip[procIdx][block]
}

// target returns the next logged indirect-jump index, for a jump of n
// targets. Past the end of the log, or past the jump's targets, it answers
// 0 and marks the replay lost.
func (r *LogReplay) target(n int) int {
	if r.ijump >= len(r.log.targets) {
		r.lost = outOfDecisions
		return 0
	}
	idx := int(r.log.targets[r.ijump])
	r.ijump++
	if idx >= n {
		r.lost = pastTargets
		return 0
	}
	return idx
}

// TakenProb implements Model: 1 if the layout's branch at the site goes
// to its taken target for the next logged conditional, else 0.
func (r *LogReplay) TakenProb(procIdx int, block ir.BlockID) float64 {
	if r.taken(procIdx, block) {
		return 1
	}
	return 0
}

// IJumpWeights implements Model: a one-hot vector over the jump's Targets
// selecting the next logged index.
func (r *LogReplay) IJumpWeights(procIdx int, block ir.BlockID) []float64 {
	t, _ := r.layout.Procs[procIdx].Blocks[block].Terminator()
	weights := make([]float64, len(t.Targets))
	weights[r.target(len(weights))] = 1
	return weights
}

// errLost reports a replay whose walk left the logged path.
func (r *LogReplay) errLost() error {
	switch r.lost {
	case outOfDecisions:
		return fmt.Errorf("trace: replay ran out of decisions after %d conditionals and %d indirect jumps",
			r.cond, r.ijump)
	case pastTargets:
		return fmt.Errorf("trace: replay's indirect jump %d logs a target its layout lacks", r.ijump)
	}
	return nil
}

// Err reports whether the replay consumed the log exactly: an error if it
// left the logged path, or has decisions left.
func (r *LogReplay) Err() error {
	if err := r.errLost(); err != nil {
		return err
	}
	if r.cond != r.log.conds || r.ijump != len(r.log.targets) {
		return fmt.Errorf("trace: replay ended with %d of %d conditionals and %d of %d indirect jumps consumed",
			r.cond, r.log.conds, r.ijump, len(r.log.targets))
	}
	return nil
}

// NewReplaySource returns a WalkSource streaming log replayed through
// layout, a layout of the log's program checked as Replay checks it, packed
// against lay. The walk runs runs complete runs, as the VM runs a
// workload's repeats, with no depth cap, as the VM has none. A run that
// passes maxSteps instructions fails the stream with the VM's own error,
// where the VM's run of the layout would fail, and so does a replay that
// leaves the log's path or ends with decisions left.
func NewReplaySource(log *DecisionLog, layout *ir.Program, lay *Layout, batchCap, runs int, maxSteps uint64) (*WalkSource, error) {
	r, err := log.Replay(layout)
	if err != nil {
		return nil, err
	}
	s, err := NewWalkSource(&Walker{Prog: layout, Model: r, MaxInstrs: maxSteps, MaxRuns: runs, MaxDepth: math.MaxInt}, lay, batchCap)
	if err != nil {
		return nil, err
	}
	s.replay, s.runLimit = r, maxSteps
	return s, nil
}
