package predict

import (
	"fmt"

	"balign/internal/ir"
)

// BTBEntry is one branch target buffer line: the full site address as tag,
// the last taken target, and a 2-bit counter predicting conditional branch
// direction (as in the Intel Pentium's BTB, which the paper models).
type BTBEntry struct {
	valid   bool
	tag     uint64
	target  uint64
	counter Counter2
	lru     uint64 // larger = more recently used
}

// BTB is a set-associative branch target buffer. Only taken branches are
// inserted; a lookup miss therefore implies a fall-through prediction. The
// paper simulates a 64-entry 2-way and a 256-entry 4-way configuration.
type BTB struct {
	sets  int
	ways  int
	lines []BTBEntry // sets*ways, row-major by set
	tick  uint64

	// statistics
	Lookups uint64
	Hits    uint64
}

// NewBTB returns a BTB with the given total entries and associativity; the
// set count (entries/ways) must be a power of two.
func NewBTB(entries, ways int) *BTB {
	if ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("predict: BTB entries %d not divisible by ways %d", entries, ways))
	}
	sets := entries / ways
	checkPow2(sets, "BTB sets")
	return &BTB{sets: sets, ways: ways, lines: make([]BTBEntry, entries)}
}

// Entries returns the total line count.
func (b *BTB) Entries() int { return b.sets * b.ways }

// Ways returns the associativity.
func (b *BTB) Ways() int { return b.ways }

func (b *BTB) set(pc uint64) []BTBEntry {
	s := int((pc / ir.InstrBytes) % uint64(b.sets))
	return b.lines[s*b.ways : (s+1)*b.ways]
}

// Lookup returns the entry for pc, or nil on miss. A hit refreshes the
// entry's LRU state.
func (b *BTB) Lookup(pc uint64) *BTBEntry {
	b.Lookups++
	b.tick++
	set := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			set[i].lru = b.tick
			b.Hits++
			return &set[i]
		}
	}
	return nil
}

// Insert installs a taken branch with the given target, evicting the LRU
// way. The 2-bit counter starts strongly taken (the branch was just taken).
func (b *BTB) Insert(pc, target uint64) *BTBEntry {
	b.tick++
	set := b.set(pc)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = BTBEntry{valid: true, tag: pc, target: target, counter: 3, lru: b.tick}
	return &set[victim]
}

// Target returns the stored target of an entry.
func (e *BTBEntry) Target() uint64 { return e.target }

// PredictTaken reports the entry's direction prediction for conditionals.
func (e *BTBEntry) PredictTaken() bool { return e.counter.Taken() }

// Update trains the entry with the branch outcome and, when taken, the
// actual target.
func (e *BTBEntry) Update(taken bool, target uint64) {
	e.counter = e.counter.Update(taken)
	if taken {
		e.target = target
	}
}

// Reset invalidates every line and clears statistics.
func (b *BTB) Reset() {
	for i := range b.lines {
		b.lines[i] = BTBEntry{}
	}
	b.tick, b.Lookups, b.Hits = 0, 0, 0
}

// ReturnStack is a fixed-depth return address stack (the paper simulates 32
// entries in every configuration). Pushing past the capacity wraps around
// and overwrites the oldest entry, as hardware stacks do.
type ReturnStack struct {
	entries []uint64
	top     int // index of next push slot
	depth   int // live entries, capped at capacity
}

// NewReturnStack returns a stack with the given capacity.
func NewReturnStack(capacity int) *ReturnStack {
	if capacity <= 0 {
		panic("predict: return stack capacity must be positive")
	}
	return &ReturnStack{entries: make([]uint64, capacity)}
}

// Push records a return address (called on procedure calls).
func (s *ReturnStack) Push(addr uint64) {
	s.entries[s.top] = addr
	s.top = (s.top + 1) % len(s.entries)
	if s.depth < len(s.entries) {
		s.depth++
	}
}

// Pop returns the predicted return address; ok is false when the stack is
// empty (the prediction then has no basis and counts as wrong unless the
// actual target happens to be 0).
func (s *ReturnStack) Pop() (addr uint64, ok bool) {
	if s.depth == 0 {
		return 0, false
	}
	s.top = (s.top - 1 + len(s.entries)) % len(s.entries)
	s.depth--
	return s.entries[s.top], true
}

// Depth returns the number of live entries.
func (s *ReturnStack) Depth() int { return s.depth }

// Reset empties the stack.
func (s *ReturnStack) Reset() { s.top, s.depth = 0, 0 }
