package trace

import (
	"fmt"
	"unsafe"

	"balign/internal/ir"
)

// This file is the batch layer of the streaming event pipeline: instead of
// materializing a workload's entire control-transfer history as []Event
// (48 bytes per event, alive until every simulator has replayed it), a
// producer emits fixed-size Batches of packed int32 ops that every consumer
// shares read-only, so peak memory is bounded by one batch rather than the
// trace length.
//
// The encoding reuses the simulation kernel's packed-slot idea: a
// per-program Layout resolves every control-transfer site to a compact id
// once, and each dynamic event is then one int32 — id<<OpShift | kind<<1 |
// taken — plus, for the two kinds whose destination is data-dependent
// (IJump, Ret), one uint64 in a side array. Every other Event field (PC,
// TakenTarget, Fall, a conditional's fall-through target) is a static
// property of the site and lives in the Layout's site table, so batches
// decode back to byte-identical Events.

// Packed-word splits. The Layout's slot table packs id<<SlotShift | kind
// (the kernel's historical encoding); a Batch op additionally carries the
// outcome bit: id<<OpShift | kind<<1 | taken.
const (
	SlotShift = 3
	OpShift   = 4
)

// SiteInfo describes one static control-transfer site of a laid-out
// program: everything about its events that does not depend on the dynamic
// outcome.
type SiteInfo struct {
	// PC is the instruction's address.
	PC uint64
	// TakenTarget is the statically encoded destination: a conditional's
	// taken target, an unconditional branch's destination, a call's callee
	// entry. Zero for IJump and Ret, whose targets are data-dependent.
	TakenTarget uint64
	// FallTarget is the address a conditional branch transfers to when it
	// falls through — the next block's address, which equals Fall except
	// for a conditional that is not its block's final instruction. Zero
	// for every other kind.
	FallTarget uint64
	// Fall is the next sequential instruction address (PC + 4).
	Fall uint64
	// Kind is the site's static break kind (CondBr, Br, Call, IJump, Ret).
	Kind ir.Kind
	// Proc and Block locate the site in the program.
	Proc  int32
	Block ir.BlockID
}

// Layout is the per-program half of the compile split: the dense
// PC-indexed site table shared by every consumer of one program variant's
// event stream (the streaming walker, the simulation kernel and the
// i-cache consumer). Compile it once per program
// variant; it is read-only afterwards and safe for concurrent use.
type Layout struct {
	base  uint64
	slots []int32 // id<<SlotShift | kind per instruction slot; -1 empty
	sites []SiteInfo
}

// CompileLayout scans prog's control-transfer instructions into a Layout.
// Addresses must have been assigned (ir.Program.AssignAddresses): the
// table is keyed by instruction slot, and duplicate site addresses are
// reported as errors.
func CompileLayout(prog *ir.Program) (*Layout, error) {
	if prog == nil {
		return nil, fmt.Errorf("trace: nil program")
	}
	lo, hi := addrRange(prog)
	l := &Layout{base: lo}
	slots := uint64(0)
	if hi > lo {
		slots = (hi - lo) / ir.InstrBytes
	}
	l.slots = make([]int32, slots)
	for i := range l.slots {
		l.slots[i] = -1
	}
	for pi, p := range prog.Procs {
		for bi, b := range p.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				kind := in.Kind()
				switch kind {
				case ir.CondBr, ir.Br, ir.Call, ir.IJump, ir.Ret:
				default:
					continue
				}
				pc := b.Addr + uint64(ii)*ir.InstrBytes
				slot := (pc - lo) / ir.InstrBytes
				if pc < lo || slot >= uint64(len(l.slots)) {
					return nil, fmt.Errorf("trace: site pc %#x outside program range [%#x, %#x)", pc, lo, hi)
				}
				if l.slots[slot] != -1 {
					return nil, fmt.Errorf("trace: duplicate site address %#x (addresses not assigned?)", pc)
				}
				s := SiteInfo{
					PC: pc, Fall: pc + ir.InstrBytes,
					Kind: kind, Proc: int32(pi), Block: ir.BlockID(bi),
				}
				switch kind {
				case ir.CondBr:
					s.TakenTarget = p.Blocks[in.TargetBlock].Addr
					if int(bi)+1 < len(p.Blocks) {
						s.FallTarget = p.Blocks[bi+1].Addr
					}
				case ir.Br:
					s.TakenTarget = p.Blocks[in.TargetBlock].Addr
				case ir.Call:
					callee := prog.Procs[in.TargetProc]
					s.TakenTarget = callee.Blocks[callee.Entry()].Addr
				}
				l.slots[slot] = int32(len(l.sites))<<SlotShift | int32(kind)
				l.sites = append(l.sites, s)
			}
		}
	}
	return l, nil
}

// addrRange returns the [lo, hi) address range spanned by prog's
// instructions.
func addrRange(prog *ir.Program) (lo, hi uint64) {
	first := true
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			if len(b.Instrs) == 0 {
				continue
			}
			end := b.Addr + uint64(len(b.Instrs))*ir.InstrBytes
			if first || b.Addr < lo {
				lo = b.Addr
			}
			if first || end > hi {
				hi = end
			}
			first = false
		}
	}
	return lo, hi
}

// Sites returns the site descriptor table in compilation order, read-only.
func (l *Layout) Sites() []SiteInfo { return l.sites }

// NumSites returns the number of compiled control-transfer sites.
func (l *Layout) NumSites() int { return len(l.sites) }

// Lookup resolves a PC to its site id.
func (l *Layout) Lookup(pc uint64) (int32, bool) {
	if pc < l.base || (pc-l.base)%ir.InstrBytes != 0 {
		return 0, false
	}
	slot := (pc - l.base) / ir.InstrBytes
	if slot >= uint64(len(l.slots)) {
		return 0, false
	}
	packed := l.slots[slot]
	if packed < 0 {
		return 0, false
	}
	return packed >> SlotShift, true
}

// Batch is one fixed-capacity run of packed events. Ops holds one int32
// per event (id<<OpShift | kind<<1 | taken); Targets holds the
// data-dependent destinations of the batch's IJump and Ret events in
// event order. A Batch is reused across fills — buffers keep their
// capacity — and shared read-only between consumers.
type Batch struct {
	Ops     []int32
	Targets []uint64
}

// Len returns the number of events in the batch.
func (b *Batch) Len() int { return len(b.Ops) }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	b.Ops = b.Ops[:0]
	b.Targets = b.Targets[:0]
}

// SizeBytes reports the batch's backing-store footprint (capacities, not
// lengths): what a live buffer pins in memory.
func (b *Batch) SizeBytes() uint64 {
	return uint64(cap(b.Ops))*4 + uint64(cap(b.Targets))*8 + uint64(unsafe.Sizeof(Batch{}))
}

// Append packs one event onto b, resolving its site through the layout.
// The event must hit a compiled site of the matching kind with the
// statically expected destination; anything else is a trace/program
// mismatch, not workload behaviour, and is reported as an error.
func (l *Layout) Append(b *Batch, e Event) error {
	si, ok := l.Lookup(e.PC)
	if !ok {
		return fmt.Errorf("trace: event pc %#x (kind %v) does not hit a compiled control-transfer site", e.PC, e.Kind)
	}
	s := &l.sites[si]
	if s.Kind != e.Kind {
		return fmt.Errorf("trace: event kind %v at pc %#x does not match compiled site kind %v", e.Kind, e.PC, s.Kind)
	}
	var takenBit int32
	if e.Taken {
		takenBit = 1
	}
	switch e.Kind {
	case ir.IJump, ir.Ret:
		b.Targets = append(b.Targets, e.Target)
	case ir.CondBr:
		want := s.FallTarget
		if e.Taken {
			want = s.TakenTarget
		}
		if e.Target != want {
			return fmt.Errorf("trace: conditional at pc %#x went to %#x, compiled site expects %#x", e.PC, e.Target, want)
		}
	default:
		if e.Target != s.TakenTarget {
			return fmt.Errorf("trace: %v at pc %#x went to %#x, compiled site expects %#x", e.Kind, e.PC, e.Target, s.TakenTarget)
		}
	}
	b.Ops = append(b.Ops, si<<OpShift|int32(e.Kind)<<1|takenBit)
	return nil
}

// Decode expands the packed batch back into Events in order, calling fn
// for each. The reconstruction is exact: decoding a batch encoded from an
// event stream reproduces that stream field for field.
func (l *Layout) Decode(b *Batch, fn func(Event)) error {
	sites := l.sites
	tcur := 0
	for _, op := range b.Ops {
		si := op >> OpShift
		if si < 0 || int(si) >= len(sites) {
			return fmt.Errorf("trace: batch op references site %d of %d", si, len(sites))
		}
		s := &sites[si]
		if kind := ir.Kind(op >> 1 & (1<<SlotShift - 1)); kind != s.Kind {
			return fmt.Errorf("trace: batch op kind %v at pc %#x does not match site kind %v", kind, s.PC, s.Kind)
		}
		taken := op&1 != 0
		e := Event{
			PC: s.PC, Kind: s.Kind, Taken: taken,
			TakenTarget: s.TakenTarget, Fall: s.Fall,
		}
		switch e.Kind {
		case ir.IJump, ir.Ret:
			if tcur >= len(b.Targets) {
				return fmt.Errorf("trace: batch has %d dynamic targets but op %v needs more", len(b.Targets), e.Kind)
			}
			e.Target = b.Targets[tcur]
			e.TakenTarget = e.Target
			tcur++
		case ir.CondBr:
			if taken {
				e.Target = s.TakenTarget
			} else {
				e.Target = s.FallTarget
			}
		default:
			e.Target = s.TakenTarget
		}
		fn(e)
	}
	if tcur != len(b.Targets) {
		return fmt.Errorf("trace: batch carries %d dynamic targets, ops consumed %d", len(b.Targets), tcur)
	}
	return nil
}

// Source yields one program variant's event stream as a sequence of packed
// batches. Sources are single-use and not safe for concurrent Fill calls;
// the broadcast stage serializes them.
type Source interface {
	// Fill overwrites b with the next run of events (up to the source's
	// batch capacity) and reports whether the batch holds any. A false
	// return means the stream is exhausted or failed; the accompanying
	// error distinguishes the two.
	Fill(b *Batch) (bool, error)
	// Instrs returns the number of instructions the generation has
	// retired; it is final once Fill has returned false.
	Instrs() uint64
	// Close releases the source's resources. It is safe to call more than
	// once and after exhaustion.
	Close()
}

// DefaultBatchCap is the default events-per-batch capacity. 8192 packed
// ops are 32 KiB — far smaller than a CPU's last-level cache slice, far
// larger than the per-batch handoff overhead.
const DefaultBatchCap = 8192
