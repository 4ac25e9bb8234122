package ir

import (
	"fmt"
	"sort"
)

// BlockID identifies a basic block by its index in the containing
// procedure's Blocks slice. IDs are stable under relabeling only within one
// Proc value; the rewriter produces fresh procedures with fresh IDs and
// records the mapping via Block.Orig.
type BlockID int32

// NoBlock marks an absent block reference (e.g. no fall-through successor).
const NoBlock BlockID = -1

// EntryBlock is the entry block's ID: every procedure enters at its first
// block (Proc.Entry returns it), an invariant consumers like profile entry
// counts rely on.
const EntryBlock BlockID = 0

// Block is a basic block: a maximal straight-line instruction sequence.
// Control enters only at the first instruction. A block ends either with a
// terminator instruction (CondBr, Br, IJump, Ret, Halt) or falls through to
// the next block in layout order.
type Block struct {
	// Label is the (optional) assembler label naming the block.
	Label string
	// Instrs is the instruction sequence, including the terminator if any.
	Instrs []Instr
	// Orig is the block's ID in the program this block was derived from, or
	// NoBlock for synthesized blocks (e.g. jump blocks inserted by the
	// rewriter). For original programs Orig equals the block's own ID.
	Orig BlockID
	// Addr is the address of the block's first instruction, assigned by
	// Program.AssignAddresses.
	Addr uint64
}

// Terminator returns the block's terminating instruction and true, or a zero
// Instr and false when the block falls through.
func (b *Block) Terminator() (*Instr, bool) {
	if len(b.Instrs) == 0 {
		return nil, false
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if last.Kind().EndsBlock() {
		return last, true
	}
	return nil, false
}

// FallsThrough reports whether execution can continue into the next block in
// layout order: the block is empty, ends with a non-terminator, or ends with
// a conditional branch (the not-taken path).
func (b *Block) FallsThrough() bool {
	t, ok := b.Terminator()
	if !ok {
		return true
	}
	return t.Kind() == CondBr
}

// NumInstrs returns the number of instructions in the block.
func (b *Block) NumInstrs() int { return len(b.Instrs) }

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{Label: b.Label, Orig: b.Orig, Addr: b.Addr}
	nb.Instrs = make([]Instr, len(b.Instrs))
	for i := range b.Instrs {
		nb.Instrs[i] = b.Instrs[i].Clone()
	}
	return nb
}

// TermAddr returns the address of the block's last instruction (the branch
// site address for blocks ending in a branch).
func (b *Block) TermAddr() uint64 {
	if len(b.Instrs) == 0 {
		return b.Addr
	}
	return b.Addr + uint64(len(b.Instrs)-1)*InstrBytes
}

// Proc is a procedure: an entry block (always Blocks[0]) plus the rest of
// its basic blocks in layout order.
type Proc struct {
	Name   string
	Blocks []*Block
}

// Entry returns the procedure's entry block ID (always 0).
func (p *Proc) Entry() BlockID { return EntryBlock }

// Block returns the block with the given ID, or nil when out of range.
func (p *Proc) Block(id BlockID) *Block {
	if id < 0 || int(id) >= len(p.Blocks) {
		return nil
	}
	return p.Blocks[id]
}

// NumInstrs returns the total instruction count of the procedure.
func (p *Proc) NumInstrs() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Succs appends the static successor block IDs of block id to dst and
// returns it: the taken target of a CondBr or Br, all IJump targets, and the
// fall-through (the next block in layout order) when the block falls
// through. Ret and Halt have no intraprocedural successors.
func (p *Proc) Succs(id BlockID, dst []BlockID) []BlockID {
	b := p.Block(id)
	if b == nil {
		return dst
	}
	if t, ok := b.Terminator(); ok {
		switch t.Kind() {
		case CondBr:
			dst = append(dst, t.TargetBlock)
		case Br:
			return append(dst, t.TargetBlock)
		case IJump:
			return append(dst, t.Targets...)
		case Ret, Halt:
			return dst
		}
	}
	if int(id)+1 < len(p.Blocks) {
		dst = append(dst, id+1)
	}
	return dst
}

// FallSucc returns the fall-through successor of block id, or NoBlock when
// the block does not fall through or is the last block.
func (p *Proc) FallSucc(id BlockID) BlockID {
	b := p.Block(id)
	if b == nil || !b.FallsThrough() {
		return NoBlock
	}
	if int(id)+1 >= len(p.Blocks) {
		return NoBlock
	}
	return id + 1
}

// Clone returns a deep copy of the procedure.
func (p *Proc) Clone() *Proc {
	np := &Proc{Name: p.Name, Blocks: make([]*Block, len(p.Blocks))}
	for i, b := range p.Blocks {
		np.Blocks[i] = b.Clone()
	}
	return np
}

// Program is a complete executable: procedures laid out in order, the first
// of which (or the one named by EntryProc) is the entry point, plus a data
// memory size for the VM.
type Program struct {
	Name  string
	Procs []*Proc
	// EntryProc is the index of the procedure where execution starts.
	EntryProc int
	// MemWords is the number of 64-bit data memory words the VM provides.
	MemWords int

	procIndex map[string]int
}

// Proc returns the procedure with the given index, or nil when out of range.
func (pr *Program) Proc(i int) *Proc {
	if i < 0 || i >= len(pr.Procs) {
		return nil
	}
	return pr.Procs[i]
}

// ProcByName returns the index of the named procedure, or -1.
func (pr *Program) ProcByName(name string) int {
	if pr.procIndex == nil {
		pr.procIndex = make(map[string]int, len(pr.Procs))
		for i, p := range pr.Procs {
			pr.procIndex[p.Name] = i
		}
	}
	if i, ok := pr.procIndex[name]; ok {
		return i
	}
	return -1
}

// InvalidateIndex drops the cached name index; call after renaming or
// adding procedures.
func (pr *Program) InvalidateIndex() { pr.procIndex = nil }

// NumInstrs returns the total static instruction count of the program.
func (pr *Program) NumInstrs() int {
	n := 0
	for _, p := range pr.Procs {
		n += p.NumInstrs()
	}
	return n
}

// Clone returns a deep copy of the program.
func (pr *Program) Clone() *Program {
	np := &Program{
		Name:      pr.Name,
		EntryProc: pr.EntryProc,
		MemWords:  pr.MemWords,
		Procs:     make([]*Proc, len(pr.Procs)),
	}
	for i, p := range pr.Procs {
		np.Procs[i] = p.Clone()
	}
	return np
}

// AssignAddresses lays the program out in memory: procedures in order, each
// block contiguous, InstrBytes per instruction, starting at base. It returns
// the first address past the program.
func (pr *Program) AssignAddresses(base uint64) uint64 {
	addr := base
	for _, p := range pr.Procs {
		for _, b := range p.Blocks {
			b.Addr = addr
			addr += uint64(len(b.Instrs)) * InstrBytes
		}
	}
	return addr
}

// BlockAt returns the procedure index and block ID of the block containing
// the given address, using binary search over the assigned layout. It
// returns (-1, NoBlock) when the address is outside the program. Addresses
// must have been assigned.
func (pr *Program) BlockAt(addr uint64) (int, BlockID) {
	pi := sort.Search(len(pr.Procs), func(i int) bool {
		p := pr.Procs[i]
		if len(p.Blocks) == 0 {
			return true
		}
		return p.Blocks[0].Addr > addr
	}) - 1
	if pi < 0 {
		return -1, NoBlock
	}
	p := pr.Procs[pi]
	bi := sort.Search(len(p.Blocks), func(i int) bool {
		return p.Blocks[i].Addr > addr
	}) - 1
	if bi < 0 {
		return -1, NoBlock
	}
	b := p.Blocks[bi]
	if addr >= b.Addr+uint64(len(b.Instrs))*InstrBytes {
		return -1, NoBlock
	}
	return pi, BlockID(bi)
}

// Validate checks structural invariants of the program and returns the first
// violation found, or nil. Checked invariants:
//
//   - every CondBr/Br target and IJump target is a valid block in its proc;
//   - every Call target is a valid procedure index;
//   - only the last instruction of a block is block-ending;
//   - the last block of a procedure does not fall through (a fall-through
//     off the end of a procedure would run into the next procedure);
//   - the entry procedure index is valid.
func (pr *Program) Validate() error {
	if pr.EntryProc < 0 || pr.EntryProc >= len(pr.Procs) {
		return fmt.Errorf("ir: program %q: entry proc %d out of range [0,%d)",
			pr.Name, pr.EntryProc, len(pr.Procs))
	}
	for pi, p := range pr.Procs {
		if len(p.Blocks) == 0 {
			return fmt.Errorf("ir: proc %q: no blocks", p.Name)
		}
		for bi, b := range p.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Kind().EndsBlock() && ii != len(b.Instrs)-1 {
					return fmt.Errorf("ir: proc %q block %d: %v at position %d is not last",
						p.Name, bi, in.Op, ii)
				}
				switch in.Kind() {
				case CondBr, Br:
					if p.Block(in.TargetBlock) == nil {
						return fmt.Errorf("ir: proc %q block %d: %v target block %d out of range",
							p.Name, bi, in.Op, in.TargetBlock)
					}
				case IJump:
					if len(in.Targets) == 0 {
						return fmt.Errorf("ir: proc %q block %d: ijump with no targets", p.Name, bi)
					}
					for _, t := range in.Targets {
						if p.Block(t) == nil {
							return fmt.Errorf("ir: proc %q block %d: ijump target block %d out of range",
								p.Name, bi, t)
						}
					}
				case Call:
					if in.TargetProc < 0 || in.TargetProc >= len(pr.Procs) {
						return fmt.Errorf("ir: proc %q block %d: call target proc %d out of range",
							p.Name, bi, in.TargetProc)
					}
				}
			}
			if bi == len(p.Blocks)-1 && b.FallsThrough() {
				return fmt.Errorf("ir: proc %q (index %d): last block %d falls through off the end",
					p.Name, pi, bi)
			}
		}
	}
	return nil
}
