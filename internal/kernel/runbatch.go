package kernel

import (
	"fmt"
	"time"

	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/trace"
)

// RunBatch consumes one packed batch produced against the kernel's own
// layout, accumulating totals and per-site penalties exactly as the
// reference simulator would over the decoded events. It may be called
// repeatedly — predictor state carries across batches — which is what lets
// N architecture kernels consume one streamed generation incrementally.
//
// The packed form already went through Layout.Append's site resolution, so
// the inner loops read each event's static fields (PC, targets, fall
// address) straight from the shared site table: per event, one int32 load
// replaces a 48-byte Event copy. Malformed ops — a site id out of range, a
// kind disagreeing with the site, a missing dynamic target — abort the
// batch with an error; they mean the batch was built against a different
// layout, not workload behaviour.
func (k *Kernel) RunBatch(b *trace.Batch) error {
	start := k.obs.Now()
	var err error
	switch k.class {
	case classBTB:
		err = k.runBTBBatch(b)
	case classPHTDirect, classPHTGshare, classPHTLocal, classTAGE, classPerceptron:
		err = k.runDirectionBatch(b)
	default:
		err = k.runStaticBatch(b)
	}
	if k.obs.Enabled() {
		// One clock read feeds both the total and the class counter, so the
		// per-class counters sum exactly to kernel.run_ns/kernel.events.
		ns, events := int64(time.Since(start)), int64(b.Len())
		k.obs.Add("kernel.run_ns", ns)
		k.obs.Add(k.runNsCounter, ns)
		k.obs.Add("kernel.batches", 1)
		k.obs.Add("kernel.events", events)
		k.obs.Add(k.eventsCounter, events)
	}
	return err
}

// counterNextTab packs the 2-bit saturating counter's transition table into
// one word: entry (state<<1 | taken) holds the next state, two bits each.
// The table is the branchless twin of predict.Counter2.Update — the batch
// loops step counters with one shift-and-mask instead of two compare
// branches per conditional event. TestCounterStepMatchesUpdate holds it to
// the reference transition function state for state.
const counterNextTab = 0xED84

// counterStepBit returns Update(taken) for a 2-bit saturating counter,
// branchlessly, with the outcome in bit form (a packed op's low bit).
func counterStepBit(c predict.Counter2, takenBit uint8) predict.Counter2 {
	return predict.Counter2(uint32(counterNextTab) >> ((uint32(c)<<1 | uint32(takenBit)) << 1) & 3)
}

// batchOpErr diagnoses a malformed packed op: the cold path behind the
// inner loops' site checks.
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

// runStaticBatch is the batch loop for the direction architectures with no
// trainable state (FALLTHROUGH, BT/FNT, LIKELY): each site's prediction is
// the compile-time predOf bit, so a conditional event reduces to one table
// load plus the branchless charging arithmetic.
func (k *Kernel) runStaticBatch(b *trace.Batch) error {
	var (
		kindOf  = k.kindOf
		predOf  = k.predOf
		fallOf  = k.fallOf
		costs   = k.costs
		res     = k.res
		targets = b.Targets
		tcur    = 0
		retErr  error
	)
	n := len(kindOf)
	costs = costs[:n]
	fallOf = fallOf[:n]
	predOf = predOf[:n]
loop:
	for _, op := range b.Ops {
		si := int(op >> trace.OpShift)
		kind := ir.Kind(op >> 1 & (1<<trace.SlotShift - 1))
		if uint(si) >= uint(n) || ir.Kind(kindOf[si]) != kind {
			retErr = k.batchOpErr(op, tcur, len(targets))
			break
		}
		res.Events++
		c := &costs[si]
		c.Events++
		switch kind {
		case ir.CondBr:
			res.ByKind[ir.CondBr&7]++
			tbit := uint8(op & 1)
			res.Cond++
			res.CondTaken += uint64(tbit)
			pbit := predOf[si]
			// Branchless charging: eq = predicted correctly; a correct
			// taken conditional misfetches, a wrong one mispredicts.
			eq := uint64(1 ^ (pbit ^ tbit))
			mf := eq & uint64(tbit)
			mp := 1 - eq
			res.CondCorrect += eq
			res.Misfetches += mf
			res.Mispredicts += mp
			c.Misfetches += mf
			c.Mispredicts += mp
		case ir.Br:
			res.ByKind[ir.Br&7]++
			res.Misfetches++
			c.Misfetches++
		case ir.Call:
			res.ByKind[ir.Call&7]++
			res.Misfetches++
			c.Misfetches++
			k.rasPush(fallOf[si])
		case ir.IJump:
			res.ByKind[ir.IJump&7]++
			res.Mispredicts++
			c.Mispredicts++
			if tcur >= len(targets) {
				retErr = k.batchOpErr(op, tcur, len(targets))
				break loop
			}
			tcur++
		case ir.Ret:
			res.ByKind[ir.Ret&7]++
			if tcur >= len(targets) {
				retErr = k.batchOpErr(op, tcur, len(targets))
				break loop
			}
			target := targets[tcur]
			tcur++
			res.Rets++
			pred, ok := k.rasPop()
			if ok && pred == target {
				res.RetsCorrect++
			} else {
				res.Mispredicts++
				c.Mispredicts++
			}
		}
	}
	k.res = res
	return retErr
}

// runDirectionBatch is the batch loop for the trained direction-predictor
// architectures (the PHTs plus the tagged TAGE and hashed-perceptron
// predictors): the reference simulators' charging rules and predictor
// updates, with every per-event load drawn from the compact per-site
// tables (one-byte kind validation, PC slots) and the conditional-branch
// accounting fully branchless. The PHT classes step their inlined counter
// tables; the tagged classes call the shared predictor core's Step once
// per conditional event, one table lookup where the reference path's
// PredictBit then UpdateBit makes two. Per event the only unpredictable
// branches left are the kind dispatch itself and, for the tagged classes,
// the predictor core's own table scans.
func (k *Kernel) runDirectionBatch(b *trace.Batch) error {
	var (
		kindOf   = k.kindOf
		slotOf   = k.slotOf
		fallOf   = k.fallOf
		costs    = k.costs
		cls      = k.class
		res      = k.res
		ghr      = k.ghr
		counters = k.counters
		mask     = k.mask
		hists    = k.histories
		histMask = k.histMask
		idxMask  = k.idxMask
		tage     = k.tage
		perc     = k.perc
		targets  = b.Targets
		tcur     = 0
		retErr   error
	)
	// Reslice every per-site table to len(kindOf) and the predictor tables
	// to their masks, so after the single validation compare the compiler
	// can prove each index in bounds and drop the per-event bounds checks.
	n := len(kindOf)
	costs = costs[:n]
	slotOf = slotOf[:n]
	fallOf = fallOf[:n]
	if counters != nil {
		counters = counters[:(mask|uint64(histMask))+1]
	}
	if hists != nil {
		hists = hists[:idxMask+1]
	}
loop:
	for _, op := range b.Ops {
		si := int(op >> trace.OpShift)
		kind := ir.Kind(op >> 1 & (1<<trace.SlotShift - 1))
		if uint(si) >= uint(n) || ir.Kind(kindOf[si]) != kind {
			retErr = k.batchOpErr(op, tcur, len(targets))
			break
		}
		res.Events++
		c := &costs[si]
		c.Events++
		switch kind {
		case ir.CondBr:
			res.ByKind[ir.CondBr&7]++
			tbit := uint8(op & 1)
			res.Cond++
			res.CondTaken += uint64(tbit)
			var pbit uint8
			switch cls {
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
			// Branchless charging: eq = predicted correctly; a correct
			// taken conditional misfetches, a wrong one mispredicts.
			eq := uint64(1 ^ (pbit ^ tbit))
			mf := eq & uint64(tbit)
			mp := 1 - eq
			res.CondCorrect += eq
			res.Misfetches += mf
			res.Mispredicts += mp
			c.Misfetches += mf
			c.Mispredicts += mp
		case ir.Br:
			res.ByKind[ir.Br&7]++
			res.Misfetches++
			c.Misfetches++
		case ir.Call:
			res.ByKind[ir.Call&7]++
			res.Misfetches++
			c.Misfetches++
			k.rasPush(fallOf[si])
		case ir.IJump:
			res.ByKind[ir.IJump&7]++
			res.Mispredicts++
			c.Mispredicts++
			if tcur >= len(targets) {
				retErr = k.batchOpErr(op, tcur, len(targets))
				break loop
			}
			tcur++
		case ir.Ret:
			res.ByKind[ir.Ret&7]++
			if tcur >= len(targets) {
				retErr = k.batchOpErr(op, tcur, len(targets))
				break loop
			}
			target := targets[tcur]
			tcur++
			res.Rets++
			pred, ok := k.rasPop()
			if ok && pred == target {
				res.RetsCorrect++
			} else {
				res.Mispredicts++
				c.Mispredicts++
			}
		}
	}
	k.res = res
	k.ghr = ghr
	return retErr
}

// runBTBBatch is the packed-op twin of runBTB: the branch-target-buffer
// charging rules over the compact site tables, with a conditional's
// installed target taken from takenOf (only the taken direction ever
// touches the BTB's target word). The lookup/insert scans live in local
// closures over the structure-of-arrays BTB state so the global LRU tick
// stays out of the Kernel struct for the whole batch.
func (k *Kernel) runBTBBatch(b *trace.Batch) error {
	var (
		kindOf  = k.kindOf
		slotOf  = k.slotOf
		fallOf  = k.fallOf
		takenOf = k.takenOf
		costs   = k.costs
		res     = k.res
		tags    = k.btbTags
		tgts    = k.btbTargets
		lrus    = k.btbLRU
		ctrs    = k.btbCtr
		tick    = k.btbTick
		ways    = k.btbWays
		setMask = k.btbSetMask
		targets = b.Targets
		tcur    = 0
		retErr  error
	)
	n := len(kindOf)
	costs = costs[:n]
	slotOf = slotOf[:n]
	fallOf = fallOf[:n]
	takenOf = takenOf[:n]
	e := len(tags)
	tgts = tgts[:e]
	lrus = lrus[:e]
	ctrs = ctrs[:e]
	// lookup and insert mirror btbLookup/btbInsert exactly (tags hold pc+1,
	// a hit refreshes the LRU tick, first invalid way wins eviction then
	// lowest tick) — keep all three in sync.
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
loop:
	for _, op := range b.Ops {
		si := int(op >> trace.OpShift)
		kind := ir.Kind(op >> 1 & (1<<trace.SlotShift - 1))
		if uint(si) >= uint(n) || ir.Kind(kindOf[si]) != kind {
			retErr = k.batchOpErr(op, tcur, len(targets))
			break
		}
		pc := slotOf[si] * ir.InstrBytes
		res.Events++
		c := &costs[si]
		c.Events++
		switch kind {
		case ir.CondBr:
			res.ByKind[ir.CondBr&7]++
			res.Cond++
			tb := uint8(op & 1)
			taken := tb != 0
			res.CondTaken += uint64(tb)
			li := lookup(pc)
			if li >= 0 {
				if ctrs[li].Taken() == taken {
					res.CondCorrect++
					// Taken and correctly predicted: the stored target of
					// a direct conditional is always right, so no penalty.
				} else {
					res.Mispredicts++
					c.Mispredicts++
				}
				ctrs[li] = counterStepBit(ctrs[li], tb)
				if taken {
					tgts[li] = takenOf[si]
				}
			} else if taken {
				res.Mispredicts++
				c.Mispredicts++
				insert(pc, takenOf[si])
			} else {
				res.CondCorrect++
			}
		case ir.Br:
			res.ByKind[ir.Br&7]++
			if lookup(pc) < 0 {
				res.Misfetches++
				c.Misfetches++
				insert(pc, takenOf[si])
			}
		case ir.Call:
			res.ByKind[ir.Call&7]++
			if lookup(pc) < 0 {
				res.Misfetches++
				c.Misfetches++
				insert(pc, takenOf[si])
			}
			k.rasPush(fallOf[si])
		case ir.IJump:
			res.ByKind[ir.IJump&7]++
			if tcur >= len(targets) {
				retErr = k.batchOpErr(op, tcur, len(targets))
				break loop
			}
			target := targets[tcur]
			tcur++
			li := lookup(pc)
			if li >= 0 && tgts[li] == target {
				// hit with the right target: free
			} else {
				res.Mispredicts++
				c.Mispredicts++
				if li >= 0 {
					ctrs[li] = counterStepBit(ctrs[li], 1)
					tgts[li] = target
				} else {
					insert(pc, target)
				}
			}
		case ir.Ret:
			res.ByKind[ir.Ret&7]++
			if tcur >= len(targets) {
				retErr = k.batchOpErr(op, tcur, len(targets))
				break loop
			}
			target := targets[tcur]
			tcur++
			res.Rets++
			pred, ok := k.rasPop()
			if ok && pred == target {
				res.RetsCorrect++
			} else {
				res.Mispredicts++
				c.Mispredicts++
			}
		}
	}
	k.res = res
	k.btbTick = tick
	return retErr
}

// btbLookup returns the line index holding pc, or -1 on miss. A hit
// refreshes the line's LRU tick, exactly as predict.BTB.Lookup does.
func (k *Kernel) btbLookup(pc uint64) int {
	k.btbTick++
	set := int((pc / ir.InstrBytes) & k.btbSetMask)
	base := set * k.btbWays
	tag := pc + 1
	for w := 0; w < k.btbWays; w++ {
		if k.btbTags[base+w] == tag {
			k.btbLRU[base+w] = k.btbTick
			return base + w
		}
	}
	return -1
}

// btbInsert installs a taken branch, evicting the set's LRU way with the
// same victim scan order as predict.BTB.Insert (first invalid way wins,
// then lowest tick).
func (k *Kernel) btbInsert(pc, target uint64) {
	k.btbTick++
	set := int((pc / ir.InstrBytes) & k.btbSetMask)
	base := set * k.btbWays
	victim := base
	for w := 0; w < k.btbWays; w++ {
		if k.btbTags[base+w] == 0 {
			victim = base + w
			break
		}
		if k.btbLRU[base+w] < k.btbLRU[victim] {
			victim = base + w
		}
	}
	k.btbTags[victim] = pc + 1
	k.btbTargets[victim] = target
	k.btbLRU[victim] = k.btbTick
	k.btbCtr[victim] = 3
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
