// Package metrics computes the measurements the paper reports: the Table 2
// program attributes (break density, branch-site quantiles, taken rates,
// break-kind mix), the branch execution penalty (BEP) and the relative
// cycles-per-instruction metric used throughout Tables 3 and 4.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/trace"
)

// Attributes are the per-program measurements of the paper's Table 2.
type Attributes struct {
	// Instrs is the number of instructions traced.
	Instrs uint64
	// PctBreaks is the percentage of instructions that break control flow.
	PctBreaks float64
	// Q50/Q90/Q99/Q100 are the numbers of conditional branch sites that
	// account for 50/90/99/100% of executed conditional branches.
	Q50, Q90, Q99, Q100 int
	// StaticSites is the number of conditional branch sites in the binary.
	StaticSites int
	// PctTaken is the percentage of executed conditional branches taken.
	PctTaken float64
	// Break-kind mix, as percentages of all breaks.
	PctCBr, PctIJ, PctBr, PctCall, PctRet float64
}

// Collector accumulates the dynamic inputs to Attributes from an event
// stream. Attach it as a trace.Sink; set Instrs from the execution result.
type Collector struct {
	Instrs    uint64
	counter   trace.Counter
	siteCount map[uint64]uint64 // conditional site PC -> executions
}

// NewCollector returns an empty attribute collector.
func NewCollector() *Collector {
	return &Collector{siteCount: make(map[uint64]uint64)}
}

// Event implements trace.Sink.
func (c *Collector) Event(e trace.Event) {
	c.counter.Event(e)
	if e.Kind == ir.CondBr {
		c.siteCount[e.PC]++
	}
}

// Counter exposes the underlying per-kind tallies.
func (c *Collector) Counter() trace.Counter { return c.counter }

// Attributes finalizes the measurements; prog supplies the static
// conditional site count.
func (c *Collector) Attributes(prog *ir.Program) Attributes {
	a := Attributes{Instrs: c.Instrs, StaticSites: StaticCondSites(prog)}
	total := c.counter.Total
	if c.Instrs > 0 {
		a.PctBreaks = 100 * float64(total) / float64(c.Instrs)
	}
	if cond := c.counter.CondTaken + c.counter.CondFall; cond > 0 {
		a.PctTaken = 100 * float64(c.counter.CondTaken) / float64(cond)
	}
	if total > 0 {
		a.PctCBr = 100 * float64(c.counter.ByKind[ir.CondBr]) / float64(total)
		a.PctIJ = 100 * float64(c.counter.ByKind[ir.IJump]) / float64(total)
		a.PctBr = 100 * float64(c.counter.ByKind[ir.Br]) / float64(total)
		a.PctCall = 100 * float64(c.counter.ByKind[ir.Call]) / float64(total)
		a.PctRet = 100 * float64(c.counter.ByKind[ir.Ret]) / float64(total)
	}
	qs := SiteQuantiles(c.siteCount, []float64{0.50, 0.90, 0.99, 1.0})
	a.Q50, a.Q90, a.Q99, a.Q100 = qs[0], qs[1], qs[2], qs[3]
	return a
}

// quantileDenom is the fixed denominator the quantile fractions are
// rationalized over: a requested fraction is interpreted to the nearest
// 1e-6, which is exact for the paper's 0.50/0.90/0.99/1.0.
const quantileDenom = 1_000_000

// SiteQuantiles returns, for each requested fraction, the minimum number of
// sites (hottest first) whose executions cover that fraction of the total.
// This is the paper's Q-50/Q-90/Q-99/Q-100 measure.
//
// The cumulative coverage test runs in integer arithmetic — fractions are
// converted to rationals num/quantileDenom and cum/total >= num/denom is
// decided on 128-bit products — so site counts near or above 2^53 and
// exact-boundary fractions cannot be mis-ranked by float rounding. In
// particular a fraction of 1.0 reduces to cum >= total, so Q-100 is always
// exactly the number of sites with nonzero executions.
func SiteQuantiles(siteCount map[uint64]uint64, fractions []float64) []int {
	counts := make([]uint64, 0, len(siteCount))
	var total uint64
	for _, n := range siteCount {
		counts = append(counts, n)
		total += n
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	out := make([]int, len(fractions))
	if total == 0 {
		return out
	}
	for fi, f := range fractions {
		num := fractionNumerator(f)
		var cum uint64
		n := 0
		for _, cnt := range counts {
			if covers(cum, total, num) {
				break
			}
			cum += cnt
			n++
		}
		out[fi] = n
	}
	return out
}

// fractionNumerator converts a coverage fraction to its numerator over
// quantileDenom, clamped to [0, quantileDenom].
func fractionNumerator(f float64) uint64 {
	switch {
	case f <= 0:
		return 0
	case f >= 1:
		return quantileDenom
	}
	return uint64(math.Round(f * quantileDenom))
}

// covers reports cum/total >= num/quantileDenom, i.e. whether the
// accumulated executions already reach the requested coverage. Both sides
// are compared as exact 128-bit products, so there is no rounding at any
// operand magnitude.
func covers(cum, total, num uint64) bool {
	lhsHi, lhsLo := bits.Mul64(cum, quantileDenom)
	rhsHi, rhsLo := bits.Mul64(num, total)
	return lhsHi > rhsHi || (lhsHi == rhsHi && lhsLo >= rhsLo)
}

// StaticCondSites counts the conditional branch instructions in a program.
func StaticCondSites(prog *ir.Program) int {
	n := 0
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			if t, ok := b.Terminator(); ok && t.Kind() == ir.CondBr {
				n++
			}
		}
	}
	return n
}

// RelativeCPI is the paper's evaluation metric: the aligned program's
// instruction count plus its branch execution penalty, divided by the
// original program's instruction count. The original program's own relative
// CPI uses its own instruction count in the numerator, giving
// (orig + BEP_orig) / orig.
func RelativeCPI(origInstrs, alignedInstrs, bep uint64) float64 {
	if origInstrs == 0 {
		return 0
	}
	return float64(alignedInstrs+bep) / float64(origInstrs)
}

// BEPFromResult computes the branch execution penalty of a simulation with
// the paper's penalties (misfetch 1, mispredict 4).
func BEPFromResult(r predict.Result) uint64 {
	return r.BEP(predict.DefaultMisfetchPenalty, predict.DefaultMispredictPenalty)
}

// FallthroughPct returns the percentage of executed conditional branches
// that fell through in a simulation result (the paper's "% of Fall-Through
// Conditional Branches" columns).
func FallthroughPct(r predict.Result) float64 {
	if r.Cond == 0 {
		return 0
	}
	return 100 * float64(r.Cond-r.CondTaken) / float64(r.Cond)
}

// Summary is one cell of the evaluation grid — a (program, architecture,
// algorithm) measurement — in reducible form: the exact simulation counts
// plus the derived paper metrics. It is the grid's one row type: the
// tables, the run report's grid section and balignd's /v1/simulate rows
// all carry it, under the JSON keys below. Because every field is either
// an exact integer or a float computed from exact integers by a fixed
// expression, two runs that executed the same simulations produce
// byte-identical encodings regardless of scheduling.
type Summary struct {
	Program string `json:"program"`
	Arch    string `json:"arch"`
	Algo    string `json:"algo"`

	// Exact counts from the traced simulation.
	Instrs      uint64 `json:"instrs"` // instructions retired by the traced variant
	BEP         uint64 `json:"bep"`    // branch execution penalty in cycles
	Events      uint64 `json:"events"`
	Misfetches  uint64 `json:"misfetches"`
	Mispredicts uint64 `json:"mispredicts"`
	Cond        uint64 `json:"cond"`
	CondTaken   uint64 `json:"cond_taken"`
	CondCorrect uint64 `json:"cond_correct"`

	// Exact instruction-cache counts (an icache.Sim replay of the variant's
	// trace; zero when the producer ran no cache simulation).
	ICFetches  uint64 `json:"ic_fetches,omitempty"`
	ICAccesses uint64 `json:"ic_accesses,omitempty"`
	ICMisses   uint64 `json:"ic_misses,omitempty"`

	// Derived paper metrics, and the i-cache misses per kilo-instruction.
	CPI          float64 `json:"cpi"`
	FallPct      float64 `json:"fall_pct"`
	CondAccuracy float64 `json:"cond_accuracy"`
	ICMPKI       float64 `json:"ic_mpki,omitempty"`
}

// NewSummary builds a Summary from one simulation result; origInstrs is the
// original program's instruction count (the relative-CPI denominator).
func NewSummary(program, arch, algo string, origInstrs, instrs uint64, r predict.Result) Summary {
	bep := BEPFromResult(r)
	return Summary{
		Program: program, Arch: arch, Algo: algo,
		Instrs: instrs, BEP: bep,
		Events: r.Events, Misfetches: r.Misfetches, Mispredicts: r.Mispredicts,
		Cond: r.Cond, CondTaken: r.CondTaken, CondCorrect: r.CondCorrect,
		CPI:          RelativeCPI(origInstrs, instrs, bep),
		FallPct:      FallthroughPct(r),
		CondAccuracy: r.CondAccuracy(),
	}
}

// EncodeSummaries renders summaries in a stable line-oriented text format.
// Two evaluation runs agree exactly if and only if their encodings are
// byte-identical, which is what the differential parallel-vs-serial oracle
// asserts.
func EncodeSummaries(s []Summary) string {
	var sb strings.Builder
	for _, r := range s {
		fmt.Fprintf(&sb, "%s %s %s instrs=%d bep=%d events=%d misfetch=%d mispredict=%d cond=%d taken=%d correct=%d icfetch=%d icacc=%d icmiss=%d cpi=%.9f fall=%.9f acc=%.9f icmpki=%.9f\n",
			r.Program, r.Arch, r.Algo, r.Instrs, r.BEP, r.Events, r.Misfetches,
			r.Mispredicts, r.Cond, r.CondTaken, r.CondCorrect,
			r.ICFetches, r.ICAccesses, r.ICMisses,
			r.CPI, r.FallPct, r.CondAccuracy, r.ICMPKI)
	}
	return sb.String()
}
