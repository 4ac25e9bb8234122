// Package profile implements edge execution profiles: how many times each
// intraprocedural CFG edge was traversed and how each conditional branch
// resolved. Profiles drive branch alignment (edge weights), the LIKELY
// static predictor (majority outcome per branch site) and the synthetic
// walker (profile-faithful trace regeneration).
package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"balign/internal/ir"
	"balign/internal/trace"
)

// Edge identifies an intraprocedural CFG edge by block IDs.
type Edge struct {
	From ir.BlockID
	To   ir.BlockID
}

// BranchCount records the dynamic outcomes of one conditional branch site.
type BranchCount struct {
	Taken uint64
	Fall  uint64
}

// Total returns the branch's execution count.
func (b BranchCount) Total() uint64 { return b.Taken + b.Fall }

// TakenProb returns the empirical probability the branch is taken; an
// unexecuted branch reports 0.
func (b BranchCount) TakenProb() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Taken) / float64(t)
}

// ProcProfile holds the profile of one procedure.
type ProcProfile struct {
	Edges    map[Edge]uint64
	Branches map[ir.BlockID]BranchCount
	// EntryCount is the procedure's invocation count: how many times control
	// entered at the entry block from a call (or, for the program entry
	// procedure, from program start). Entry blocks have no incoming
	// intraprocedural edge for these executions, so without it the entry
	// block's weight undercounts by one full invocation per call —
	// core.ProcHotness derives it from caller block weights when the
	// collector could not record it directly.
	EntryCount uint64
}

// NewProcProfile returns an empty procedure profile.
func NewProcProfile() *ProcProfile {
	return &ProcProfile{
		Edges:    make(map[Edge]uint64),
		Branches: make(map[ir.BlockID]BranchCount),
	}
}

// Weight returns the traversal count of the edge from -> to.
func (p *ProcProfile) Weight(from, to ir.BlockID) uint64 {
	return p.Edges[Edge{from, to}]
}

// BlockWeight returns the execution count of a block: the sum of its
// incoming edge weights, plus — for the entry block — one execution per
// procedure invocation (EntryCount). The entry increment is NOT immaterial:
// relative-ordering consumers tolerate its absence, but absolute-weight
// consumers (ExtTSP's distance-weighted objective, procedure hotness and
// cross-procedure layout) mis-rank call-heavy entry blocks without it.
func (p *ProcProfile) BlockWeight(id ir.BlockID) uint64 {
	var n uint64
	for e, w := range p.Edges {
		if e.To == id {
			n += w
		}
	}
	if id == ir.EntryBlock {
		n += p.EntryCount
	}
	return n
}

// Profile is a whole-program profile keyed by procedure name (names are
// stable across alignment rewrites, unlike block IDs).
type Profile struct {
	Program string
	// Instrs is the total number of instructions executed while profiling.
	Instrs uint64
	Procs  map[string]*ProcProfile
}

// New returns an empty profile for the named program.
func New(program string) *Profile {
	return &Profile{Program: program, Procs: make(map[string]*ProcProfile)}
}

// Proc returns the profile for the named procedure, creating it on demand.
func (pf *Profile) Proc(name string) *ProcProfile {
	pp, ok := pf.Procs[name]
	if !ok {
		pp = NewProcProfile()
		pf.Procs[name] = pp
	}
	return pp
}

// Merge adds other's counts into pf.
func (pf *Profile) Merge(other *Profile) {
	pf.Instrs += other.Instrs
	for name, opp := range other.Procs {
		pp := pf.Proc(name)
		pp.EntryCount += opp.EntryCount
		for e, w := range opp.Edges {
			pp.Edges[e] += w
		}
		for b, c := range opp.Branches {
			cur := pp.Branches[b]
			cur.Taken += c.Taken
			cur.Fall += c.Fall
			pp.Branches[b] = cur
		}
	}
}

// Scale multiplies every count by num/den, rounding down but never turning a
// nonzero count into zero (alignment treats weight ≥ 1 as "executed").
func (pf *Profile) Scale(num, den uint64) {
	if den == 0 {
		return
	}
	sc := func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		s := v * num / den
		if s == 0 {
			s = 1
		}
		return s
	}
	pf.Instrs = sc(pf.Instrs)
	for _, pp := range pf.Procs {
		pp.EntryCount = sc(pp.EntryCount)
		for e, w := range pp.Edges {
			pp.Edges[e] = sc(w)
		}
		for b, c := range pp.Branches {
			pp.Branches[b] = BranchCount{Taken: sc(c.Taken), Fall: sc(c.Fall)}
		}
	}
}

// TotalEdgeWeight returns the sum of all edge weights in the profile.
func (pf *Profile) TotalEdgeWeight() uint64 {
	var n uint64
	for _, pp := range pf.Procs {
		for _, w := range pp.Edges {
			n += w
		}
	}
	return n
}

// Collector adapts a Profile to the trace.EdgeSink interface for a specific
// program (needed to map procedure indices to stable names).
type Collector struct {
	prog *ir.Program
	prof *Profile
}

// NewCollector returns a collector that accumulates into a fresh Profile.
func NewCollector(prog *ir.Program) *Collector {
	return &Collector{prog: prog, prof: New(prog.Name)}
}

// Profile returns the accumulated profile.
func (c *Collector) Profile() *Profile { return c.prof }

// Edge implements trace.EdgeSink.
func (c *Collector) Edge(procIdx int, from, to ir.BlockID) {
	c.prof.Proc(c.prog.Procs[procIdx].Name).Edges[Edge{from, to}]++
}

// Branch implements trace.EdgeSink.
func (c *Collector) Branch(procIdx int, block ir.BlockID, taken bool) {
	pp := c.prof.Proc(c.prog.Procs[procIdx].Name)
	cur := pp.Branches[block]
	if taken {
		cur.Taken++
	} else {
		cur.Fall++
	}
	pp.Branches[block] = cur
}

// Instrs implements trace.EdgeSink.
func (c *Collector) Instrs(n uint64) { c.prof.Instrs += n }

var _ trace.EdgeSink = (*Collector)(nil)

// Model returns a trace.Model that reproduces the profiled branch behaviour
// of prog: conditional branches take with their profiled probability and
// indirect jumps follow the profiled target distribution. Branches never
// executed in the profile default to not-taken.
//
// The model snapshots the profile: Model reads pf once into dense
// per-procedure, per-block tables, so the walkers' per-branch questions
// cost two slice indexes instead of two map lookups, and changes made to
// pf's Procs afterwards do not reach the model. IJumpWeights returns the
// model's own table row, shared by every call; callers must not modify it.
func (pf *Profile) Model(prog *ir.Program) trace.Model {
	m := &profileModel{
		taken:   make([][]float64, len(prog.Procs)),
		weights: make([][][]float64, len(prog.Procs)),
	}
	for pi, p := range prog.Procs {
		pp, ok := pf.Procs[p.Name]
		if !ok {
			continue
		}
		taken := make([]float64, len(p.Blocks))
		var weights [][]float64
		for bi, b := range p.Blocks {
			taken[bi] = pp.Branches[ir.BlockID(bi)].TakenProb()
			term, ok := b.Terminator()
			if !ok || term.Kind() != ir.IJump {
				continue
			}
			if w := pp.ijumpWeights(ir.BlockID(bi), term.Targets); w != nil {
				if weights == nil {
					weights = make([][]float64, len(p.Blocks))
				}
				weights[bi] = w
			}
		}
		m.taken[pi], m.weights[pi] = taken, weights
	}
	return m
}

// ijumpWeights returns the profiled edge weights from block to each of an
// indirect jump's targets, or nil when none was ever taken.
func (pp *ProcProfile) ijumpWeights(block ir.BlockID, targets []ir.BlockID) []float64 {
	out := make([]float64, len(targets))
	any := false
	for i, t := range targets {
		w := pp.Edges[Edge{block, t}]
		out[i] = float64(w)
		if w > 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// profileModel is Model's snapshot, indexed [proc][block]. A procedure
// absent from the profile has nil rows, and so does a procedure with no
// profiled indirect jump in weights.
type profileModel struct {
	taken   [][]float64
	weights [][][]float64
}

// TakenProb implements trace.Model.
func (m *profileModel) TakenProb(procIdx int, block ir.BlockID) float64 {
	if t := m.taken[procIdx]; int(block) < len(t) {
		return t[block]
	}
	return 0
}

// IJumpWeights implements trace.Model.
func (m *profileModel) IJumpWeights(procIdx int, block ir.BlockID) []float64 {
	if w := m.weights[procIdx]; int(block) < len(w) {
		return w[block]
	}
	return nil
}

// WriteTo serializes the profile in a stable line-oriented text format.
func (pf *Profile) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(m int, err error) error {
		n += int64(m)
		return err
	}
	if err := count(fmt.Fprintf(bw, "program %s\ninstrs %d\n", pf.Program, pf.Instrs)); err != nil {
		return n, err
	}
	names := make([]string, 0, len(pf.Procs))
	for name := range pf.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pp := pf.Procs[name]
		if err := count(fmt.Fprintf(bw, "proc %s\n", name)); err != nil {
			return n, err
		}
		// entry records only appear when nonzero, so profiles written before
		// entry counts existed round-trip byte-identically.
		if pp.EntryCount > 0 {
			if err := count(fmt.Fprintf(bw, "entry %d\n", pp.EntryCount)); err != nil {
				return n, err
			}
		}
		edges := make([]Edge, 0, len(pp.Edges))
		for e := range pp.Edges {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		for _, e := range edges {
			if err := count(fmt.Fprintf(bw, "edge %d %d %d\n", e.From, e.To, pp.Edges[e])); err != nil {
				return n, err
			}
		}
		blocks := make([]ir.BlockID, 0, len(pp.Branches))
		for b := range pp.Branches {
			blocks = append(blocks, b)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		for _, b := range blocks {
			c := pp.Branches[b]
			if err := count(fmt.Fprintf(bw, "branch %d %d %d\n", b, c.Taken, c.Fall)); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// Read parses a profile previously written by WriteTo.
func Read(r io.Reader) (*Profile, error) {
	pf := New("")
	var cur *ProcProfile
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		bad := func(msg string) error {
			return fmt.Errorf("profile: line %d: %s: %q", line, msg, sc.Text())
		}
		switch fields[0] {
		case "program":
			if len(fields) == 2 {
				pf.Program = fields[1]
			}
		case "instrs":
			if len(fields) != 2 {
				return nil, bad("instrs takes one value")
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, bad("bad instruction count")
			}
			pf.Instrs = v
		case "proc":
			if len(fields) != 2 {
				return nil, bad("proc takes one name")
			}
			cur = pf.Proc(fields[1])
		case "entry":
			if cur == nil {
				return nil, bad("entry before proc")
			}
			if len(fields) != 2 {
				return nil, bad("entry takes one count")
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, bad("bad entry count")
			}
			cur.EntryCount += v
		case "edge":
			if cur == nil {
				return nil, bad("edge before proc")
			}
			if len(fields) != 4 {
				return nil, bad("edge takes from to weight")
			}
			from, err1 := parseBlockID(fields[1])
			to, err2 := parseBlockID(fields[2])
			w, err3 := strconv.ParseUint(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, bad("bad edge numbers (block ids must be in [0, 2^31))")
			}
			cur.Edges[Edge{ir.BlockID(from), ir.BlockID(to)}] += w
		case "branch":
			if cur == nil {
				return nil, bad("branch before proc")
			}
			if len(fields) != 4 {
				return nil, bad("branch takes block taken fall")
			}
			b, err1 := parseBlockID(fields[1])
			taken, err2 := strconv.ParseUint(fields[2], 10, 64)
			fall, err3 := strconv.ParseUint(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, bad("bad branch numbers (block ids must be in [0, 2^31))")
			}
			cc := cur.Branches[b]
			cc.Taken += taken
			cc.Fall += fall
			cur.Branches[b] = cc
		default:
			return nil, bad("unknown record")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return pf, nil
}

// parseBlockID parses a block index. Block ids index a procedure's block
// slice, so a negative id, or one too large for ir.BlockID (which would
// wrap), is rejected rather than handed to the aligner.
func parseBlockID(s string) (ir.BlockID, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("negative block id %d", v)
	}
	return ir.BlockID(v), nil
}
