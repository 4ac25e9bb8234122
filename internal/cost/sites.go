package cost

import (
	"balign/internal/ir"
	"balign/internal/profile"
)

// SiteCost is the expected cycle cost of one branch site of a laid-out
// procedure under a model. It is the per-site decomposition of ProcCost:
// summing Cost over ProcSiteCosts(p, pp, m) equals ProcCost(p, pp, m)
// exactly (same floating-point operations in the same per-site order), so
// site diffs between two layouts always reconcile with the procedure
// totals they came from. Both read the one pricing loop, eachSite.
type SiteCost struct {
	// Block is the site's block ID in p; Orig is that block's provenance
	// (ir.Block.Orig — ir.NoBlock for rewriter-synthesized jump blocks),
	// which is what lets a site be matched to its counterpart across an
	// alignment rewrite.
	Block ir.BlockID
	Orig  ir.BlockID
	// PC is the branch instruction's address in the laid-out procedure.
	PC uint64
	// Kind is the terminator kind: ir.CondBr or ir.Br.
	Kind ir.Kind
	// Cost is the site's expected cycles under the model.
	Cost float64
}

// ProcSiteCosts prices each costed branch site of a procedure individually,
// in block order: the conditional and unconditional direct branches that
// ProcCost sums (indirect jumps, calls and returns are layout-invariant and
// excluded there too). The procedure must have addresses assigned.
func ProcSiteCosts(p *ir.Proc, pp *profile.ProcProfile, m Model) []SiteCost {
	var sites []SiteCost
	eachSite(p, pp, m, func(s SiteCost) { sites = append(sites, s) })
	return sites
}

// eachSite prices p's conditional and unconditional branch sites under m
// and hands each to f, in block order. It is the one pricing loop behind
// ProcCost and ProcSiteCosts.
func eachSite(p *ir.Proc, pp *profile.ProcProfile, m Model, f func(SiteCost)) {
	for id, b := range p.Blocks {
		term, ok := b.Terminator()
		if !ok {
			continue
		}
		s := SiteCost{Block: ir.BlockID(id), Orig: b.Orig, PC: b.TermAddr(), Kind: term.Kind()}
		switch s.Kind {
		case ir.CondBr:
			wTaken := pp.Weight(s.Block, term.TargetBlock)
			var wFall uint64
			if fall := s.Block + 1; int(fall) < len(p.Blocks) {
				wFall = pp.Weight(s.Block, fall)
				if term.TargetBlock == fall {
					// Degenerate branch: both directions reach the same
					// block; use the recorded outcome split if present.
					c := pp.Branches[s.Block]
					if c.Total() > 0 {
						wTaken, wFall = c.Taken, c.Fall
					}
				}
			}
			backward := p.Block(term.TargetBlock).Addr <= s.PC
			s.Cost = m.CondBranch(wFall, wTaken, backward)
		case ir.Br:
			s.Cost = m.Uncond(pp.Weight(s.Block, term.TargetBlock))
		default:
			continue
		}
		f(s)
	}
}
