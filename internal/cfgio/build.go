package cfgio

import (
	"fmt"
	"regexp"
	"sort"

	"balign/internal/ir"
	"balign/internal/profile"
)

// Import decodes a CFG document in either encoding (auto-detected: JSON when
// the first non-space byte is '{', DOT otherwise) and builds a validated
// ir.Program plus its profile.Profile.
func Import(data []byte) (*ir.Program, *profile.Profile, error) {
	if looksJSON(data) {
		return importJSON(data)
	}
	return importDOT(data)
}

// identRe matches names the asm text form can round-trip: they must survive
// as labels, proc names and branch operands.
var identRe = regexp.MustCompile(`^[A-Za-z_.][A-Za-z0-9_.]*$`)

// canonLabelRe matches the canonical ".bN" labels the exporter assigns to
// unlabelled blocks; user labels may only use the form for their own index.
var canonLabelRe = regexp.MustCompile(`^\.b([0-9]+)$`)

func checkName(format string, line int, elem, what, name string) error {
	if name == "" {
		return errAt(format, line, elem, "empty %s name", what)
	}
	if len(name) > maxNameLen {
		return errAt(format, line, elem, "%s name longer than %d bytes", what, maxNameLen)
	}
	if !identRe.MatchString(name) {
		return errAt(format, line, elem, "invalid %s name %q (want [A-Za-z_.][A-Za-z0-9_.]*)", what, name)
	}
	return nil
}

// termSlots returns the instruction slots a terminator of the given kind
// occupies, or -1 for an unknown kind.
func termSlots(kind string) int {
	switch kind {
	case kindCond, kindBr, kindIJump, kindRet, kindHalt:
		return 1
	case kindFall:
		return 0
	}
	return -1
}

// build validates d and lowers it to a program and profile.
func build(d *doc) (*ir.Program, *profile.Profile, error) {
	if len(d.procs) == 0 {
		return nil, nil, errAt(d.format, 0, "", "document has no procedures")
	}
	if len(d.procs) > maxProcs {
		return nil, nil, errAt(d.format, 0, "", "too many procedures (%d > %d)", len(d.procs), maxProcs)
	}
	if d.name != "" {
		if err := checkName(d.format, 0, "", "program", d.name); err != nil {
			return nil, nil, err
		}
	}
	if d.memWords < 0 {
		return nil, nil, errAt(d.format, 0, "", "negative mem_words %d", d.memWords)
	}
	if d.memWords == 0 {
		d.memWords = 1024 // the asm default, so text round-trips are stable
	}

	procIdx := make(map[string]int, len(d.procs))
	for i := range d.procs {
		dp := &d.procs[i]
		if err := checkName(d.format, dp.line, procElem(dp.name), "procedure", dp.name); err != nil {
			return nil, nil, err
		}
		if _, dup := procIdx[dp.name]; dup {
			return nil, nil, errAt(d.format, dp.line, procElem(dp.name), "duplicate procedure name")
		}
		procIdx[dp.name] = i
	}

	entry := 0
	if d.entry != "" {
		idx, ok := procIdx[d.entry]
		if !ok {
			return nil, nil, errAt(d.format, 0, "", "entry procedure %q not defined", d.entry)
		}
		entry = idx
	}

	totalSlots := 0
	for pi := range d.procs {
		dp := &d.procs[pi]
		if err := checkProc(d.format, dp, procIdx, &totalSlots); err != nil {
			return nil, nil, err
		}
	}
	if err := checkWeights(d, entry); err != nil {
		return nil, nil, err
	}

	prog := &ir.Program{Name: d.name, MemWords: d.memWords, EntryProc: entry}
	pf := profile.New(d.name)
	for pi := range d.procs {
		dp := &d.procs[pi]
		p := &ir.Proc{Name: dp.name}
		pp := pf.Proc(dp.name)
		pp.EntryCount = dp.entryCount
		for bi := range dp.blocks {
			db := &dp.blocks[bi]
			b := &ir.Block{Label: db.label, Orig: ir.BlockID(bi)}
			if b.Label == "" {
				b.Label = fmt.Sprintf(".b%d", bi)
			}
			fill := db.size - len(db.calls) - termSlots(db.kind)
			for i := 0; i < fill; i++ {
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpNop})
			}
			for _, callee := range db.calls {
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpCall, TargetProc: procIdx[callee]})
			}
			switch db.kind {
			case kindCond:
				taken, fall := condEdges(db)
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpBeqz, Rd: 1, TargetBlock: ir.BlockID(taken.to)})
				pp.Branches[ir.BlockID(bi)] = profile.BranchCount{Taken: taken.weight, Fall: fallWeight(fall)}
				pp.Edges[profile.Edge{From: ir.BlockID(bi), To: ir.BlockID(taken.to)}] += taken.weight
				if fall != nil {
					pp.Edges[profile.Edge{From: ir.BlockID(bi), To: ir.BlockID(fall.to)}] += fall.weight
				}
			case kindBr:
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpBr, TargetBlock: ir.BlockID(db.edges[0].to)})
				pp.Edges[profile.Edge{From: ir.BlockID(bi), To: ir.BlockID(db.edges[0].to)}] += db.edges[0].weight
			case kindIJump:
				in := ir.Instr{Op: ir.OpIJump, Rd: 1}
				for _, e := range db.edges {
					in.Targets = append(in.Targets, ir.BlockID(e.to))
					pp.Edges[profile.Edge{From: ir.BlockID(bi), To: ir.BlockID(e.to)}] += e.weight
				}
				b.Instrs = append(b.Instrs, in)
			case kindRet:
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpRet})
			case kindHalt:
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpHalt})
			case kindFall:
				pp.Edges[profile.Edge{From: ir.BlockID(bi), To: ir.BlockID(db.edges[0].to)}] += db.edges[0].weight
			}
			p.Blocks = append(p.Blocks, b)
		}
		prog.Procs = append(prog.Procs, p)
	}

	if d.instrs > 0 {
		pf.Instrs = d.instrs
	} else {
		pf.Instrs = estimateInstrs(d, entry)
	}

	prog.AssignAddresses(0x1000)
	if err := prog.Validate(); err != nil {
		// The checks above should catch everything first; this is a backstop
		// so no invalid program ever escapes the importer.
		return nil, nil, errAt(d.format, 0, "", "built program failed validation: %v", err)
	}
	return prog, pf, nil
}

// condEdges returns the taken edge and the optional fall edge of a validated
// cond block.
func condEdges(db *docBlock) (taken, fall *docEdge) {
	for i := range db.edges {
		if db.edges[i].taken {
			taken = &db.edges[i]
		} else {
			fall = &db.edges[i]
		}
	}
	return taken, fall
}

func fallWeight(e *docEdge) uint64 {
	if e == nil {
		return 0
	}
	return e.weight
}

// checkProc validates one procedure's structure: dense labelled blocks,
// per-kind edge shape, resolvable calls, reachability from block 0.
func checkProc(format string, dp *docProc, procIdx map[string]int, totalSlots *int) error {
	pe := procElem(dp.name)
	if len(dp.blocks) == 0 {
		return errAt(format, dp.line, pe, "procedure has no blocks")
	}
	if len(dp.blocks) > maxBlocksPerProc {
		return errAt(format, dp.line, pe, "too many blocks (%d > %d)", len(dp.blocks), maxBlocksPerProc)
	}
	labels := make(map[string]int, len(dp.blocks))
	for bi := range dp.blocks {
		db := &dp.blocks[bi]
		be := blockElem(dp.name, bi)
		ts := termSlots(db.kind)
		if ts < 0 {
			return errAt(format, db.line, be, "unknown block kind %q (want cond|br|ijump|ret|halt|fall)", db.kind)
		}
		if db.size < 0 {
			return errAt(format, db.line, be, "negative block size %d", db.size)
		}
		if db.size < len(db.calls)+ts {
			return errAt(format, db.line, be, "block size %d too small for %d call(s) and a %s terminator",
				db.size, len(db.calls), db.kind)
		}
		*totalSlots += db.size
		if *totalSlots > maxTotalSlots {
			return errAt(format, db.line, be, "program exceeds %d instruction slots", maxTotalSlots)
		}
		if db.label != "" {
			if err := checkName(format, db.line, be, "label", db.label); err != nil {
				return err
			}
			if m := canonLabelRe.FindStringSubmatch(db.label); m != nil && m[1] != fmt.Sprint(bi) {
				return errAt(format, db.line, be, "label %q uses the reserved .bN form for a different block", db.label)
			}
			if prev, dup := labels[db.label]; dup {
				return errAt(format, db.line, be, "duplicate label %q (also on block %d)", db.label, prev)
			}
			labels[db.label] = bi
		}
		for _, callee := range db.calls {
			if _, ok := procIdx[callee]; !ok {
				return errAt(format, db.line, be, "call to undefined procedure %q", callee)
			}
		}
		if len(db.edges) > maxEdgesPerBlock {
			return errAt(format, db.line, be, "too many edges (%d > %d)", len(db.edges), maxEdgesPerBlock)
		}
		if err := checkEdges(format, dp, bi); err != nil {
			return err
		}
	}
	// Implicit-label collisions: an explicit label may not shadow nothing —
	// the canonical ".bN" forms of *unlabelled* blocks are assigned at build
	// time, so an explicit ".bN" naming an unlabelled block N is fine (it is
	// exactly what the exporter writes); the per-index check above already
	// rejected mismatched uses.

	// Reachability from the procedure's entry block over static edges.
	seen := make([]bool, len(dp.blocks))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range dp.blocks[bi].edges {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	for bi, ok := range seen {
		if !ok {
			return errAt(format, dp.blocks[bi].line, blockElem(dp.name, bi),
				"block unreachable from procedure entry block 0")
		}
	}
	return nil
}

// checkEdges validates the out-edges of block bi against its kind.
func checkEdges(format string, dp *docProc, bi int) error {
	db := &dp.blocks[bi]
	type key struct {
		to    int
		taken bool
	}
	seen := make(map[key]int, len(db.edges))
	for i := range db.edges {
		e := &db.edges[i]
		ee := edgeElem(dp.name, bi, e.to)
		if e.to < 0 || e.to >= len(dp.blocks) {
			return errAt(format, e.line, ee, "edge target out of range (procedure has %d blocks)", len(dp.blocks))
		}
		if e.taken && db.kind != kindCond {
			return errAt(format, e.line, ee, "taken flag on an edge of a %s block", db.kind)
		}
		if _, dup := seen[key{e.to, e.taken}]; dup {
			return errAt(format, e.line, ee, "duplicate edge")
		}
		seen[key{e.to, e.taken}] = i
	}
	be := blockElem(dp.name, bi)
	switch db.kind {
	case kindCond:
		var taken, fall int
		for i := range db.edges {
			if db.edges[i].taken {
				taken++
			} else {
				fall++
				if db.edges[i].to != bi+1 {
					return errAt(format, db.edges[i].line, edgeElem(dp.name, bi, db.edges[i].to),
						"cond fall-through edge must target the next block (%d)", bi+1)
				}
			}
		}
		if taken != 1 {
			return errAt(format, db.line, be, "cond block needs exactly one taken edge, got %d", taken)
		}
		if fall > 1 {
			return errAt(format, db.line, be, "cond block has %d fall-through edges", fall)
		}
		if bi+1 >= len(dp.blocks) {
			return errAt(format, db.line, be, "cond block cannot be the last block (it falls through)")
		}
	case kindBr:
		if len(db.edges) != 1 {
			return errAt(format, db.line, be, "br block needs exactly one edge, got %d", len(db.edges))
		}
	case kindIJump:
		if len(db.edges) == 0 {
			return errAt(format, db.line, be, "ijump block needs at least one edge")
		}
		// Canonical target order: by destination.
		sort.SliceStable(db.edges, func(i, j int) bool { return db.edges[i].to < db.edges[j].to })
	case kindRet, kindHalt:
		if len(db.edges) != 0 {
			return errAt(format, db.line, be, "%s block must have no edges, got %d", db.kind, len(db.edges))
		}
	case kindFall:
		if len(db.edges) != 1 || db.edges[0].to != bi+1 {
			return errAt(format, db.line, be, "fall block needs exactly one edge to the next block (%d)", bi+1)
		}
		if bi+1 >= len(dp.blocks) {
			return errAt(format, db.line, be, "fall block cannot be the last block")
		}
	}
	return nil
}

// inFlow computes per-block inflow (incoming edge weights, plus the
// procedure entry count at block 0).
func inFlow(dp *docProc) []uint64 {
	in := make([]uint64, len(dp.blocks))
	in[0] += dp.entryCount
	for bi := range dp.blocks {
		for _, e := range dp.blocks[bi].edges {
			in[e.to] += e.weight
		}
	}
	return in
}

// checkWeights enforces flow conservation: per block, inflow must match
// outflow within weightSlack (sinks exempt), and per non-entry procedure
// the entry_count must match the weighted call-site total within
// weightSlack.
func checkWeights(d *doc, entry int) error {
	within := func(a, b uint64) bool {
		hi, lo := a, b
		if hi < lo {
			hi, lo = lo, hi
		}
		tol := uint64(1) + uint64(weightSlack*float64(hi))
		return hi-lo <= tol
	}

	// Weighted call totals per callee, accumulated across all procs.
	callFlow := make(map[string]uint64)
	for pi := range d.procs {
		dp := &d.procs[pi]
		in := inFlow(dp)
		for bi := range dp.blocks {
			db := &dp.blocks[bi]
			var out uint64
			for _, e := range db.edges {
				out += e.weight
			}
			switch db.kind {
			case kindRet, kindHalt:
				// Sinks: flow leaves the procedure here.
			default:
				if !within(in[bi], out) {
					return errAt(d.format, db.line, blockElem(dp.name, bi),
						"weight not conserved: inflow %d vs outflow %d (slack %.4g)", in[bi], out, weightSlack)
				}
			}
			for _, callee := range db.calls {
				callFlow[callee] += in[bi]
			}
		}
	}
	for pi := range d.procs {
		if pi == entry {
			// The entry procedure is additionally invoked by program starts,
			// which the document does not model; skip its call-count check.
			continue
		}
		dp := &d.procs[pi]
		if got := callFlow[dp.name]; !within(got, dp.entryCount) {
			return errAt(d.format, dp.line, procElem(dp.name),
				"entry_count %d does not match weighted call-site total %d (slack %.4g)",
				dp.entryCount, got, weightSlack)
		}
	}
	return nil
}

// estimateInstrs derives a deterministic executed-instruction total from the
// profile when the document does not carry one: each block executes its full
// slot count once per inflow.
func estimateInstrs(d *doc, entry int) uint64 {
	var total uint64
	for pi := range d.procs {
		dp := &d.procs[pi]
		in := inFlow(dp)
		if pi == entry && dp.entryCount == 0 {
			// Give the entry procedure at least one pass so a count-free
			// document still yields a non-zero budget.
			in[0]++
		}
		for bi := range dp.blocks {
			total += in[bi] * uint64(dp.blocks[bi].size)
		}
	}
	return total
}

// docFromProgram lowers a program + profile back to the shared document
// form, canonically ordered; the encoders render it byte-stably.
func docFromProgram(prog *ir.Program, pf *profile.Profile) (*doc, error) {
	d := &doc{
		name:     prog.Name,
		memWords: prog.MemWords,
		instrs:   pf.Instrs,
	}
	if ep := prog.Proc(prog.EntryProc); ep != nil {
		d.entry = ep.Name
	} else {
		return nil, fmt.Errorf("cfgio: export: entry proc %d out of range", prog.EntryProc)
	}
	for _, p := range prog.Procs {
		pp := pf.Procs[p.Name]
		if pp == nil {
			pp = profile.NewProcProfile()
		}
		dp := docProc{name: p.Name, entryCount: pp.EntryCount}
		for bi, b := range p.Blocks {
			db := docBlock{size: len(b.Instrs)}
			db.label = b.Label
			if db.label == "" {
				db.label = fmt.Sprintf(".b%d", bi)
			}
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Kind() == ir.Call {
					cp := prog.Proc(in.TargetProc)
					if cp == nil {
						return nil, fmt.Errorf("cfgio: export: proc %q block %d: call target %d out of range",
							p.Name, bi, in.TargetProc)
					}
					db.calls = append(db.calls, cp.Name)
				}
			}
			term, hasTerm := b.Terminator()
			switch {
			case !hasTerm:
				db.kind = kindFall
				db.edges = append(db.edges, docEdge{
					to:     bi + 1,
					weight: pp.Weight(ir.BlockID(bi), ir.BlockID(bi+1)),
				})
			case term.Kind() == ir.CondBr:
				db.kind = kindCond
				bc := pp.Branches[ir.BlockID(bi)]
				if bc.Fall > 0 {
					db.edges = append(db.edges, docEdge{to: bi + 1, weight: bc.Fall})
				}
				db.edges = append(db.edges, docEdge{to: int(term.TargetBlock), weight: bc.Taken, taken: true})
			case term.Kind() == ir.Br:
				db.kind = kindBr
				db.edges = append(db.edges, docEdge{
					to:     int(term.TargetBlock),
					weight: pp.Weight(ir.BlockID(bi), term.TargetBlock),
				})
			case term.Kind() == ir.IJump:
				db.kind = kindIJump
				seen := map[int]bool{}
				for _, t := range term.Targets {
					if seen[int(t)] {
						continue
					}
					seen[int(t)] = true
					db.edges = append(db.edges, docEdge{to: int(t), weight: pp.Weight(ir.BlockID(bi), t)})
				}
				sort.Slice(db.edges, func(i, j int) bool { return db.edges[i].to < db.edges[j].to })
			case term.Kind() == ir.Ret:
				db.kind = kindRet
			case term.Kind() == ir.Halt:
				db.kind = kindHalt
			}
			dp.blocks = append(dp.blocks, db)
		}
		d.procs = append(d.procs, dp)
	}
	return d, nil
}
