package kernel

import (
	"fmt"
	"time"

	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/trace"
)

// chunkOps is how many ops of a batch one round of passes covers: the
// capacity of the conditional scratch the shared pass fills. Each
// architecture's pass re-warms its predictor tables once per chunk, so
// longer chunks run faster: on a 2-vCPU Xeon VM suite-sim's grid took
// about 9% longer with 256-op chunks than with 1,024, and 4,096 read
// faster again. A default batch (trace.DefaultBatchCap) is two chunks.
const chunkOps = 4096

// RunBatch consumes one packed batch produced against the kernel's own
// layout, accumulating every architecture's totals and per-site penalties
// exactly as the reference simulators would over the decoded events. It
// may be called repeatedly — predictor state carries across batches —
// which is what lets one kernel consume a streamed generation
// incrementally.
//
// The batch is taken chunkOps ops at a time, in three passes per chunk:
//
//  1. The shared pass validates each op and does what every architecture
//     does alike: it counts events per site and kind, runs the one return
//     stack and charges its misses, and collects the chunk's conditional
//     ops.
//  2. Every direction architecture steps over those conditionals only.
//  3. Every BTB walks the chunk's ops, since it charges conditionals,
//     branches, calls and indirect jumps by its own hits and misses.
//
// The packed form already went through Layout.Append's site resolution, so
// the passes read each event's static fields (PC slot, targets, fall
// address) straight from the kernel's per-site tables. Malformed ops — a
// site id out of range, a kind disagreeing with the site, a missing
// dynamic target — stop the batch at that op with an error, after every
// architecture has simulated the ops before it; dynamic targets left over
// after the last op are an error too. Either means the batch was built
// against a different layout, not workload behaviour.
func (k *Kernel) RunBatch(b *trace.Batch) error {
	// conds is the scratch the shared pass collects a chunk's conditional
	// ops into, for the direction architectures to step over. It lives on
	// the stack, so neither a compile nor a batch allocates it.
	var conds [chunkOps]int32
	sw := stopwatch{on: k.obs.Enabled(), last: k.obs.Now()}
	var sharedNs int64
	tcur := 0
	var err error
	for lo := 0; lo < len(b.Ops) && err == nil; lo += chunkOps {
		first := tcur
		var ops []int32
		var nc int
		ops, nc, tcur, err = k.sharedPass(b.Ops[lo:min(lo+chunkOps, len(b.Ops))], b.Targets, tcur, &conds)
		sharedNs += sw.lap()
		for gi := range k.groups {
			g := &k.groups[gi]
			for _, ai := range g.archs {
				if a := &k.archs[ai]; a.class == classBTB {
					k.runBTB(a, ops, b.Targets[first:tcur])
				} else {
					k.runConds(a, conds[:nc])
				}
			}
			g.ns += sw.lap()
		}
	}
	if err == nil && tcur != len(b.Targets) {
		err = fmt.Errorf("kernel: batch carries %d dynamic targets, ops consumed %d", len(b.Targets), tcur)
	}
	if sw.on {
		// Each pass's lap starts where the previous one ended, so the
		// shared and per-class buckets sum exactly to kernel.run_ns. Event
		// and batch counts are per architecture.
		events := int64(b.Len())
		total := sharedNs
		k.obs.Add("kernel.run_ns.shared", sharedNs)
		for gi := range k.groups {
			g := &k.groups[gi]
			k.obs.Add(g.runNsCounter, g.ns)
			k.obs.Add(g.eventsCounter, events*int64(len(g.archs)))
			total += g.ns
			g.ns = 0
		}
		k.obs.Add("kernel.run_ns", total)
		k.obs.Add("kernel.batches", int64(len(k.archs)))
		k.obs.Add("kernel.events", events*int64(len(k.archs)))
	}
	return err
}

// stopwatch splits a batch's wall time into consecutive laps. Off
// (telemetry disabled), it reads no clock and every lap is zero.
type stopwatch struct {
	on   bool
	last time.Time
}

// lap returns the nanoseconds since the previous lap (or the start).
func (s *stopwatch) lap() int64 {
	if !s.on {
		return 0
	}
	now := time.Now()
	d := int64(now.Sub(s.last))
	s.last = now
	return d
}

// counterNextTab packs the 2-bit saturating counter's transition table into
// one word: entry (state<<1 | taken) holds the next state, two bits each.
// The table is the branchless twin of predict.Counter2.Update — the passes
// step counters with one shift-and-mask instead of two compare branches
// per conditional event. TestCounterStepMatchesUpdate holds it to the
// reference transition function state for state.
const counterNextTab = 0xED84

// counterStepBit returns Update(taken) for a 2-bit saturating counter,
// branchlessly, with the outcome in bit form (a packed op's low bit).
func counterStepBit(c predict.Counter2, takenBit uint8) predict.Counter2 {
	return predict.Counter2(uint32(counterNextTab) >> ((uint32(c)<<1 | uint32(takenBit)) << 1) & 3)
}

// batchOpErr diagnoses a malformed packed op: the cold path behind the
// shared pass's checks.
func (k *Kernel) batchOpErr(op int32, tcur, ntargets int) error {
	si := op >> trace.OpShift
	if si < 0 || int(si) >= len(k.sites) {
		return fmt.Errorf("kernel: batch op references site %d of %d (batch from a different layout?)", si, len(k.sites))
	}
	kind := ir.Kind(op >> 1 & (1<<trace.SlotShift - 1))
	if kind != k.sites[si].Kind {
		return fmt.Errorf("kernel: batch op kind %v at pc %#x does not match compiled site kind %v",
			kind, k.sites[si].PC, k.sites[si].Kind)
	}
	return fmt.Errorf("kernel: batch carries %d dynamic targets but op %d (%v at pc %#x) needs more",
		ntargets, tcur, kind, k.sites[si].PC)
}

// sharedPass validates ops and does the work every architecture does
// alike: it counts events per site and kind, runs the return stack and
// charges its misses, and collects the conditional ops into conds. It
// returns the ops it accepted (all of them, or those before the first
// malformed one), how many conditionals they hold, the target cursor after
// them and the malformed op's error. len(ops) must not exceed chunkOps.
func (k *Kernel) sharedPass(ops []int32, targets []uint64, tcur int, conds *[chunkOps]int32) ([]int32, int, int, error) {
	var (
		kindOf = k.kindOf
		fallOf = k.fallOf
		base   = k.base
		res    = k.shared
		nc     = 0
		end    = len(ops)
		err    error
	)
	// Reslice the per-site tables to len(kindOf), so after the validation
	// compare the compiler can prove each site index in bounds.
	n := len(kindOf)
	fallOf = fallOf[:n]
	base = base[:n]
loop:
	for i, op := range ops {
		si := int(op >> trace.OpShift)
		kind := ir.Kind(op >> 1 & (1<<trace.SlotShift - 1))
		if uint(si) >= uint(n) || ir.Kind(kindOf[si]) != kind {
			end, err = i, k.batchOpErr(op, tcur, len(targets))
			break
		}
		c := &base[si]
		switch kind {
		case ir.CondBr:
			conds[nc] = op
			nc++
			res.CondTaken += uint64(op & 1)
		case ir.Call:
			k.rasPush(fallOf[si])
		case ir.IJump:
			if tcur >= len(targets) {
				end, err = i, k.batchOpErr(op, tcur, len(targets))
				break loop
			}
			tcur++
		case ir.Ret:
			if tcur >= len(targets) {
				end, err = i, k.batchOpErr(op, tcur, len(targets))
				break loop
			}
			target := targets[tcur]
			tcur++
			res.Rets++
			if pred, ok := k.rasPop(); ok && pred == target {
				res.RetsCorrect++
			} else {
				res.Mispredicts++
				c.Mispredicts++
			}
		}
		c.Events++
		res.ByKind[kind&7]++
	}
	res.Events += uint64(end)
	res.Cond += uint64(nc)
	k.shared = res
	return ops[:end], nc, tcur, err
}

// runConds steps direction architecture a over a chunk's conditional ops:
// each is predicted, trained on its outcome and charged by the paper's
// rules, branchlessly — a correct taken conditional misfetches, a wrong
// one mispredicts. The static classes read their fixed bit, the PHT
// classes step their inlined counter tables, and the tagged classes call
// the shared predictor core's Step once per conditional, one table lookup
// where the reference path's PredictBit then UpdateBit makes two. The
// class switch is on a loop-invariant value, so it predicts perfectly.
func (k *Kernel) runConds(a *arch, conds []int32) {
	var (
		slotOf   = k.slotOf
		pen      = a.pen
		cls      = a.class
		predOf   = a.predOf
		ghr      = a.ghr
		counters = a.counters
		mask     = a.mask
		hists    = a.histories
		histMask = a.histMask
		idxMask  = a.idxMask
		tage     = a.tage
		perc     = a.perc
		mf, mp   uint64
	)
	// Reslice the predictor tables to their masks, so the compiler can
	// prove each table index in bounds.
	if counters != nil {
		counters = counters[:(mask|uint64(histMask))+1]
	}
	if hists != nil {
		hists = hists[:idxMask+1]
	}
	for _, op := range conds {
		si := int(op >> trace.OpShift)
		tbit := uint8(op & 1)
		var pbit uint8 // FALLTHROUGH predicts not taken
		switch cls {
		case classBTFNT, classLikely:
			pbit = predOf[si]
		case classPHTDirect:
			idx := slotOf[si] & mask
			cc := counters[idx]
			pbit = uint8(cc) >> 1
			counters[idx] = counterStepBit(cc, tbit)
		case classPHTGshare:
			idx := (slotOf[si] ^ ghr) & mask
			cc := counters[idx]
			pbit = uint8(cc) >> 1
			counters[idx] = counterStepBit(cc, tbit)
			ghr = ((ghr << 1) | uint64(tbit)) & mask
		case classPHTLocal:
			lslot := slotOf[si] & idxMask
			h := hists[lslot] & histMask
			cc := counters[h]
			pbit = uint8(cc) >> 1
			counters[h] = counterStepBit(cc, tbit)
			hists[lslot] = ((hists[lslot] << 1) | uint16(tbit)) & histMask
		case classTAGE:
			pbit = tage.Step(slotOf[si], tbit)
		case classPerceptron:
			pbit = perc.Step(slotOf[si], tbit)
		}
		eq := uint64(1 ^ (pbit ^ tbit))
		f := eq & uint64(tbit)
		p := &pen[si]
		p.misfetches += f
		p.mispredicts += 1 - eq
		mf += f
		mp += 1 - eq
	}
	a.misfetches += mf
	a.mispredicts += mp
	a.condCorrect += uint64(len(conds)) - mp
	a.ghr = ghr
}

// runBTB walks a chunk's accepted ops through BTB architecture a with the
// reference BTBSim's charging rules. targets holds the dynamic targets of
// the chunk's indirect jumps and returns, in op order; returns were
// charged by the shared pass and only advance the cursor here. A
// conditional's installed target comes from takenOf (only the taken
// direction ever touches the BTB's target word). The lookup/insert scans
// live in local closures over the structure-of-arrays BTB state so the
// global LRU tick stays out of memory for the whole chunk.
func (k *Kernel) runBTB(a *arch, ops []int32, targets []uint64) {
	var (
		slotOf           = k.slotOf
		takenOf          = k.takenOf
		pen              = a.pen
		tags             = a.btbTags
		tgts             = a.btbTargets
		lrus             = a.btbLRU
		ctrs             = a.btbCtr
		tick             = a.btbTick
		ways             = a.btbWays
		setMask          = a.btbSetMask
		mf, mp, cCorrect uint64
		tcur             = 0
	)
	e := len(tags)
	tgts = tgts[:e]
	lrus = lrus[:e]
	ctrs = ctrs[:e]
	// lookup and insert mirror predict.BTB's Lookup and Insert exactly
	// (tags hold pc+1, a hit refreshes the LRU tick, first invalid way
	// wins eviction, then lowest tick).
	lookup := func(pc uint64) int {
		tick++
		base := int((pc/ir.InstrBytes)&setMask) * ways
		tag := pc + 1
		for w := 0; w < ways; w++ {
			if tags[base+w] == tag {
				lrus[base+w] = tick
				return base + w
			}
		}
		return -1
	}
	insert := func(pc, target uint64) {
		tick++
		base := int((pc/ir.InstrBytes)&setMask) * ways
		victim := base
		for w := 0; w < ways; w++ {
			if tags[base+w] == 0 {
				victim = base + w
				break
			}
			if lrus[base+w] < lrus[victim] {
				victim = base + w
			}
		}
		tags[victim] = pc + 1
		tgts[victim] = target
		lrus[victim] = tick
		ctrs[victim] = 3
	}
	for _, op := range ops {
		si := int(op >> trace.OpShift)
		switch ir.Kind(op >> 1 & (1<<trace.SlotShift - 1)) {
		case ir.CondBr:
			tb := uint8(op & 1)
			taken := tb != 0
			li := lookup(slotOf[si] * ir.InstrBytes)
			if li >= 0 {
				if ctrs[li].Taken() == taken {
					// Taken and correctly predicted: the stored target of
					// a direct conditional is always right, so no penalty.
					cCorrect++
				} else {
					mp++
					pen[si].mispredicts++
				}
				ctrs[li] = counterStepBit(ctrs[li], tb)
				if taken {
					tgts[li] = takenOf[si]
				}
			} else if taken {
				mp++
				pen[si].mispredicts++
				insert(slotOf[si]*ir.InstrBytes, takenOf[si])
			} else {
				cCorrect++
			}
		case ir.Br, ir.Call:
			if pc := slotOf[si] * ir.InstrBytes; lookup(pc) < 0 {
				mf++
				pen[si].misfetches++
				insert(pc, takenOf[si])
			}
		case ir.IJump:
			target := targets[tcur]
			tcur++
			li := lookup(slotOf[si] * ir.InstrBytes)
			if li >= 0 && tgts[li] == target {
				// hit with the right target: free
				continue
			}
			mp++
			pen[si].mispredicts++
			if li >= 0 {
				ctrs[li] = counterStepBit(ctrs[li], 1)
				tgts[li] = target
			} else {
				insert(slotOf[si]*ir.InstrBytes, target)
			}
		case ir.Ret:
			tcur++
		}
	}
	a.misfetches += mf
	a.mispredicts += mp
	a.condCorrect += cCorrect
	a.btbTick = tick
}

// rasPush records a return address, wrapping past the fixed capacity as
// hardware return stacks (and predict.ReturnStack) do.
func (k *Kernel) rasPush(addr uint64) {
	k.ras[k.rasTop] = addr
	k.rasTop = (k.rasTop + 1) % len(k.ras)
	if k.rasDepth < len(k.ras) {
		k.rasDepth++
	}
}

// rasPop returns the predicted return address; ok is false on an empty
// stack.
func (k *Kernel) rasPop() (uint64, bool) {
	if k.rasDepth == 0 {
		return 0, false
	}
	k.rasTop = (k.rasTop - 1 + len(k.ras)) % len(k.ras)
	k.rasDepth--
	return k.ras[k.rasTop], true
}
