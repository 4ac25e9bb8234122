package workload

import (
	"math"
	"math/rand"

	"balign/internal/ir"
	"balign/internal/metrics"
	"balign/internal/trace"
)

// synthModel carries the generated program's stochastic behaviour: the
// walker consults it for conditional outcome probabilities and indirect
// target distributions.
type synthModel struct {
	taken map[uint64]float64
	ij    map[uint64][]float64
}

func modelKey(proc int, block ir.BlockID) uint64 {
	return uint64(proc)<<32 | uint64(uint32(block))
}

func newSynthModel() *synthModel {
	return &synthModel{taken: make(map[uint64]float64), ij: make(map[uint64][]float64)}
}

// TakenProb implements trace.Model.
func (m *synthModel) TakenProb(proc int, block ir.BlockID) float64 {
	return m.taken[modelKey(proc, block)]
}

// IJumpWeights implements trace.Model.
func (m *synthModel) IJumpWeights(proc int, block ir.BlockID) []float64 {
	return m.ij[modelKey(proc, block)]
}

// genKnobs are the internal generation parameters derived from a Spec and
// refined by one calibration pass.
type genKnobs struct {
	segsPerLoop  int
	alphaDiamond float64 // fraction of segments that are diamonds
	betaSwitch   float64 // fraction of segments that are switches
	gammaCall    float64 // fraction of segments that are call sites
	meanTrips    float64 // mean loop trip count
	diamondTaken float64 // mean taken probability of diamond conditionals
	opsPerIter   float64 // non-break instructions per loop iteration
}

// deriveKnobs computes first-order knobs from the spec targets; see the
// accounting in the comments (per loop iteration: one back-edge conditional,
// S*alpha diamond conditionals, S*beta indirect jumps, S*gamma call/return
// pairs).
func deriveKnobs(s Spec) genKnobs {
	k := genKnobs{segsPerLoop: 3}
	S := float64(k.segsPerLoop)

	rBr := s.MixBr / s.MixCBr
	// Each diamond emits an unconditional branch on roughly half its
	// executions (arms are placed in random orientation).
	k.alphaDiamond = clampF(rBr/(0.5*S-S*rBr+1e-9), 0.02, 0.8)
	cbrPerIter := 1 + S*k.alphaDiamond
	k.betaSwitch = clampF(s.MixIJ/s.MixCBr*cbrPerIter/S, 0, 0.5)
	k.gammaCall = clampF(s.MixCall/s.MixCBr*cbrPerIter/S, 0, 0.5)

	// Taken rate: back edges are taken trips/(trips+1) of the time,
	// diamonds diamondTaken of the time.
	target := s.PctTaken / 100
	k.meanTrips = 20
	pLoop := k.meanTrips / (k.meanTrips + 1)
	k.diamondTaken = (target*cbrPerIter - pLoop) / (S * k.alphaDiamond)
	if k.diamondTaken < 0.08 {
		// Even never-taken diamonds leave the rate too high: shorten loops.
		k.diamondTaken = 0.08
		x := target*cbrPerIter - S*k.alphaDiamond*k.diamondTaken
		x = clampF(x, 0.45, 0.99)
		k.meanTrips = clampF(x/(1-x), 2, 400)
	} else if k.diamondTaken > 0.92 {
		k.diamondTaken = 0.92
		x := target*cbrPerIter - S*k.alphaDiamond*k.diamondTaken
		x = clampF(x, 0.45, 0.995)
		k.meanTrips = clampF(x/(1-x), 2, 400)
	}

	evPerIter := cbrPerIter + S*k.betaSwitch + 2*S*k.gammaCall
	k.opsPerIter = evPerIter*(100/s.PctBreaks-1) - S*k.betaSwitch // arms add a little
	if k.opsPerIter < 1 {
		k.opsPerIter = 1
	}
	return k
}

func clampF(v, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, v)) }

// synthesize generates a program matching the spec's statistics, with one
// calibration round: generate, walk briefly, measure break density and
// taken rate, correct the knobs, regenerate.
func synthesize(s Spec, seed int64) (*ir.Program, trace.Model, error) {
	knobs := deriveKnobs(s)
	prog, model := generate(s, knobs, seed)

	// Calibration walk.
	col := metrics.NewCollector()
	w := &trace.Walker{Prog: prog, Model: model, Seed: seed + 7, MaxInstrs: 200_000}
	instrs, _, err := w.Run(col, nil)
	if err != nil {
		return nil, nil, err
	}
	col.Instrs = instrs
	attr := col.Attributes(prog)

	if attr.PctBreaks > 0.1 && s.PctBreaks > 0 {
		// opsPerIter scales inversely with break density.
		ratio := (100/s.PctBreaks - 1) / math.Max(100/attr.PctBreaks-1, 0.1)
		knobs.opsPerIter = clampF(knobs.opsPerIter*ratio, 1, 500)
	}
	if attr.PctTaken > 1 && s.PctTaken > 0 {
		diff := (s.PctTaken - attr.PctTaken) / 100
		knobs.diamondTaken = clampF(knobs.diamondTaken+diff/math.Max(knobs.alphaDiamond*3, 0.2), 0.03, 0.97)
		// Nudge loop length in the same direction.
		x := clampF(knobs.meanTrips/(knobs.meanTrips+1)+diff/2, 0.4, 0.995)
		knobs.meanTrips = clampF(x/(1-x), 2, 400)
	}
	prog, model = generate(s, knobs, seed)
	return prog, model, nil
}

// generate builds the program: a dispatch loop in main selecting leaf
// procedures with Zipf-distributed frequency, each leaf a run of loops whose
// bodies contain diamond/switch/call segments, plus small utility callees.
func generate(s Spec, k genKnobs, seed int64) (*ir.Program, trace.Model) {
	rng := rand.New(rand.NewSource(seed))
	model := newSynthModel()
	prog := &ir.Program{Name: s.Name, MemWords: 16}

	nLeaves := s.Procs
	if nLeaves < 1 {
		nLeaves = 1
	}
	nUtils := 2
	if nLeaves >= 8 {
		nUtils = 4
	}

	// Procedure indices: 0 = main, 1..nLeaves = leaves, then utilities.
	leafProc := func(i int) int { return 1 + i }
	utilProc := func(i int) int { return 1 + nLeaves + i }

	// Zipf hotness over leaves.
	weights := make([]float64, nLeaves)
	var wsum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -s.HotSkew)
		wsum += weights[i]
	}

	// --- main: dispatch chain ---
	// d_i: cond -> call_i (with the conditional taken probability chosen so
	// leaf i is selected with its Zipf share), fall -> d_{i+1}; the last
	// dispatch falls to a call of the last leaf. call blocks jump back to
	// the head of the chain.
	main := &ir.Proc{Name: "main"}
	prog.Procs = append(prog.Procs, main)
	mb := &blockBuilder{proc: main, procIdx: 0, model: model, rng: rng}

	dispatch := make([]ir.BlockID, nLeaves) // dispatch test blocks
	callBlk := make([]ir.BlockID, nLeaves)
	for i := 0; i < nLeaves; i++ {
		dispatch[i] = mb.newBlock()
	}
	for i := 0; i < nLeaves; i++ {
		callBlk[i] = mb.newBlock()
	}
	remaining := wsum
	for i := 0; i < nLeaves; i++ {
		p := weights[i] / remaining
		remaining -= weights[i]
		if i == nLeaves-1 {
			// Last test falls through to its call unconditionally; emit a
			// branch to the call block (kept simple as an uncond edge).
			mb.setInstrs(dispatch[i], []ir.Instr{{Op: ir.OpBr, TargetBlock: callBlk[i]}})
			continue
		}
		mb.setInstrs(dispatch[i], []ir.Instr{
			{Op: ir.OpBnez, Rd: uint8(1 + i%8), TargetBlock: callBlk[i]},
		})
		model.taken[modelKey(0, dispatch[i])] = p
	}
	for i := 0; i < nLeaves; i++ {
		mb.setInstrs(callBlk[i], []ir.Instr{
			{Op: ir.OpCall, TargetProc: leafProc(i)},
			{Op: ir.OpBr, TargetBlock: dispatch[0]},
		})
	}

	// --- leaves ---
	// Distribute the conditional-site budget over leaves (hot leaves are
	// not necessarily bigger; spread evenly with mild variation).
	sitesPerLeaf := s.CondSites / nLeaves
	if sitesPerLeaf < 1 {
		sitesPerLeaf = 1
	}
	segTypes := []float64{k.alphaDiamond, k.betaSwitch, k.gammaCall}
	for i := 0; i < nLeaves; i++ {
		leaf := &ir.Proc{Name: leafName(i)}
		prog.Procs = append(prog.Procs, leaf)
		lb := &blockBuilder{proc: leaf, procIdx: leafProc(i), model: model, rng: rng}
		// Loops per leaf: each loop contributes ~1+S*alpha conditional
		// sites.
		sitesPerLoop := 1 + float64(k.segsPerLoop)*k.alphaDiamond
		nLoops := int(math.Round(float64(sitesPerLeaf)/sitesPerLoop + rng.Float64() - 0.5))
		if nLoops < 1 {
			nLoops = 1
		}
		for l := 0; l < nLoops; l++ {
			lb.emitLoop(k, segTypes, nUtils, func(u int) int { return utilProc(u) })
		}
		lb.endBlock(ir.Instr{Op: ir.OpRet})
	}

	// --- utilities ---
	for u := 0; u < nUtils; u++ {
		util := &ir.Proc{Name: utilName(u)}
		prog.Procs = append(prog.Procs, util)
		ub := &blockBuilder{proc: util, procIdx: utilProc(u), model: model, rng: rng}
		b := ub.newBlock()
		n := 2 + rng.Intn(6)
		instrs := make([]ir.Instr, 0, n+1)
		for j := 0; j < n; j++ {
			instrs = append(instrs, opInstr(rng))
		}
		instrs = append(instrs, ir.Instr{Op: ir.OpRet})
		ub.setInstrs(b, instrs)
	}

	prog.AssignAddresses(0x1000)
	return prog, model
}

func leafName(i int) string {
	return "leaf" + itoa(i)
}

func utilName(i int) string {
	return "util" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// opInstr returns a random harmless computational instruction.
func opInstr(rng *rand.Rand) ir.Instr {
	r := uint8(1 + rng.Intn(ir.NumRegs-1))
	switch rng.Intn(3) {
	case 0:
		return ir.Instr{Op: ir.OpAddi, Rd: r, Rs: r, Imm: 1}
	case 1:
		return ir.Instr{Op: ir.OpXor, Rd: r, Rs: r, Rt: r}
	default:
		return ir.Instr{Op: ir.OpMuli, Rd: r, Rs: r, Imm: 3}
	}
}

// blockBuilder incrementally constructs a procedure's blocks.
type blockBuilder struct {
	proc    *ir.Proc
	procIdx int
	model   *synthModel
	rng     *rand.Rand
	open    ir.BlockID // block currently accepting instructions, or NoBlock
	hasOpen bool
}

func (b *blockBuilder) newBlock() ir.BlockID {
	b.proc.Blocks = append(b.proc.Blocks, &ir.Block{Orig: ir.BlockID(len(b.proc.Blocks))})
	b.open = ir.BlockID(len(b.proc.Blocks) - 1)
	b.hasOpen = true
	return b.open
}

func (b *blockBuilder) setInstrs(id ir.BlockID, instrs []ir.Instr) {
	b.proc.Blocks[id].Instrs = instrs
}

// cur returns the open block, creating one if needed.
func (b *blockBuilder) cur() ir.BlockID {
	if !b.hasOpen {
		return b.newBlock()
	}
	return b.open
}

// add appends instructions to the open block.
func (b *blockBuilder) add(instrs ...ir.Instr) {
	id := b.cur()
	b.proc.Blocks[id].Instrs = append(b.proc.Blocks[id].Instrs, instrs...)
}

// endBlock appends a terminator and closes the block.
func (b *blockBuilder) endBlock(term ir.Instr) ir.BlockID {
	id := b.cur()
	b.proc.Blocks[id].Instrs = append(b.proc.Blocks[id].Instrs, term)
	b.hasOpen = false
	return id
}

// pad appends n random computational instructions.
func (b *blockBuilder) pad(n int) {
	for i := 0; i < n; i++ {
		b.add(opInstr(b.rng))
	}
}

// emitLoop generates one loop: header padding, segments (diamond / switch /
// call / plain), and a backward conditional branch. Loops are emitted in the
// "rotated" source form compilers commonly produce: body first, conditional
// at the bottom targeting the body head.
func (b *blockBuilder) emitLoop(k genKnobs, segTypes []float64, nUtils int, utilProc func(int) int) {
	rng := b.rng
	trips := clampF(k.meanTrips*math.Exp(rng.Float64()*2-1), 2, 500)

	// Ops budget per iteration, split across segments.
	ops := int(math.Round(k.opsPerIter * (0.6 + 0.8*rng.Float64())))
	if ops < 1 {
		ops = 1
	}

	b.pad(1 + ops/4)
	bodyHead := b.cur()

	nSegs := k.segsPerLoop
	perSeg := ops / (nSegs + 1)
	for s := 0; s < nSegs; s++ {
		b.pad(perSeg)
		r := rng.Float64()
		switch {
		case r < segTypes[0]:
			b.emitDiamond(k, perSeg)
		case r < segTypes[0]+segTypes[1]:
			b.emitSwitch(perSeg)
		case r < segTypes[0]+segTypes[1]+segTypes[2]:
			b.add(ir.Instr{Op: ir.OpCall, TargetProc: utilProc(rng.Intn(nUtils))})
		}
	}
	b.pad(ops - perSeg*nSegs)

	// Backward conditional: taken -> bodyHead.
	back := b.endBlock(ir.Instr{Op: ir.OpBnez, Rd: uint8(1 + rng.Intn(8)), TargetBlock: bodyHead})
	b.model.taken[modelKey(b.procIdx, back)] = trips / (trips + 1)
}

// emitDiamond generates an if/else: the conditional's arms are oriented
// randomly (taken-to-then or taken-to-else), so generated code is not
// pre-aligned and alignment has real work to do.
func (b *blockBuilder) emitDiamond(k genKnobs, armOps int) {
	rng := b.rng
	pTaken := clampF(k.diamondTaken+rng.NormFloat64()*0.15, 0.02, 0.98)

	condBlk := b.cur()
	thenBlk := ir.BlockID(len(b.proc.Blocks)) // fall arm
	elseBlk := thenBlk + 1                    // taken arm
	joinBlk := thenBlk + 2
	_ = thenBlk

	b.endBlock(ir.Instr{Op: condOp(rng), TargetBlock: elseBlk})
	b.model.taken[modelKey(b.procIdx, condBlk)] = pTaken

	// then (fall) arm: ops, jump over else to join.
	b.newBlock()
	b.pad(1 + armOps/2)
	b.endBlock(ir.Instr{Op: ir.OpBr, TargetBlock: joinBlk})

	// else (taken) arm: ops, falls through to join.
	b.newBlock()
	b.pad(1 + armOps/2)
	b.hasOpen = false // falls through to join

	b.newBlock() // join
}

// emitSwitch generates an indirect jump over 2-5 arms with a random target
// distribution.
func (b *blockBuilder) emitSwitch(armOps int) {
	rng := b.rng
	nArms := 2 + rng.Intn(4)
	swBlk := b.cur()

	arms := make([]ir.BlockID, nArms)
	base := ir.BlockID(len(b.proc.Blocks))
	for i := range arms {
		arms[i] = base + ir.BlockID(i)
	}
	join := base + ir.BlockID(nArms)

	b.endBlock(ir.Instr{Op: ir.OpIJump, Rd: uint8(1 + rng.Intn(8)), Targets: arms})
	weights := make([]float64, nArms)
	for i := range weights {
		weights[i] = math.Pow(rng.Float64(), 2) + 0.02
	}
	b.model.ij[modelKey(b.procIdx, swBlk)] = weights

	for i := 0; i < nArms; i++ {
		b.newBlock()
		b.pad(1 + armOps/nArms)
		if i < nArms-1 {
			b.endBlock(ir.Instr{Op: ir.OpBr, TargetBlock: join})
		} else {
			b.hasOpen = false // last arm falls into join
		}
	}
	b.newBlock() // join
}

func condOp(rng *rand.Rand) ir.Opcode {
	ops := []ir.Opcode{ir.OpBeqz, ir.OpBnez, ir.OpBltz, ir.OpBgez}
	op := ops[rng.Intn(len(ops))]
	return op
}
