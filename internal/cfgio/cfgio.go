// Package cfgio imports and exports control-flow graphs with edge profiles,
// opening the pipeline's front door to programs it did not invent: a CFG
// recovered from a real binary (a Go pprof profile, an LLVM BB-layout dump, a
// binary rewriter) can be fed to alignment without writing assembly by hand.
//
// Two interchange encodings are supported, both describing the same model —
// procedures of basic blocks with a size (instruction slots), a terminator
// kind, optional mid-block calls, and weighted outgoing edges:
//
//   - JSON: a single object {name, mem_words, entry, instrs, procs:[...]};
//     see the package tests and EXPERIMENTS.md for the full shape;
//   - DOT: a strict, line-oriented digraph subset (one cluster subgraph per
//     procedure, nodes "proc/idx" carrying [kind, size, label, calls]
//     attributes, edges carrying [weight, taken]) that also renders under
//     graphviz for visual inspection.
//
// Imports are validated structurally (dense block indices, per-kind edge
// shape, reachability from each procedure's entry block, resolvable call
// targets) and quantitatively (per-block weight conservation and call-count
// consistency within a fixed slack, since real profiles are sampled).
// The importer synthesizes an ir.Program whose block sizes, terminators and
// call sites match the document — filler slots become nops, conditional
// terminators become beqz — plus a profile.Profile carrying the edge
// weights, branch outcome splits and procedure entry counts. Imported
// programs are traced by the profile-faithful walker, exactly like the
// synthetic Table 2 workloads.
//
// Export is canonical: procedures and blocks in program order, every block
// explicitly labelled (defaulting to the ".bN" form ir printing uses), edges
// sorted fall-before-taken then by target. A canonical document re-imports
// to the same program and re-exports byte-identically, including after a
// round-trip through the internal/asm text form — the fuzz targets and the
// suite-smoke oracle enforce both loops.
package cfgio

import (
	"fmt"
	"strings"
)

// Structural limits applied before any allocation is sized by untrusted
// input. They are far above anything a real profile produces.
const (
	maxProcs         = 4096
	maxBlocksPerProc = 1 << 16
	maxEdgesPerBlock = 4096
	maxTotalSlots    = 1 << 22 // instruction slots program-wide
	maxNameLen       = 256
)

// weightSlack is the relative tolerance of the weight conservation checks:
// per-block |inflow-outflow| and per-procedure |callers-entry_count| must
// not exceed 1 + weightSlack*flow. Real edge profiles are sampled, so
// per-block inflow and outflow rarely agree exactly; 1% plus one absolute
// count covers sampling skew without letting structurally broken profiles
// through.
const weightSlack = 0.01

// Error describes an import failure with as much position information as the
// encoding provides: DOT errors carry the source line, JSON decode errors
// the byte offset (and derived line), and semantic errors from either
// encoding name the offending procedure/block/edge.
type Error struct {
	Format string // "json" or "dot"
	Line   int    // 1-based source line; 0 when unknown
	Offset int64  // byte offset into the input; -1 when unknown
	Elem   string // offending element, e.g. `proc "main" block 3 edge ->7`
	Msg    string
}

// Error renders the parts that are known, in a stable order.
func (e *Error) Error() string {
	var sb strings.Builder
	sb.WriteString("cfgio(")
	sb.WriteString(e.Format)
	sb.WriteString(")")
	if e.Line > 0 {
		fmt.Fprintf(&sb, ": line %d", e.Line)
	}
	if e.Offset >= 0 {
		fmt.Fprintf(&sb, ": byte %d", e.Offset)
	}
	if e.Elem != "" {
		sb.WriteString(": ")
		sb.WriteString(e.Elem)
	}
	sb.WriteString(": ")
	sb.WriteString(e.Msg)
	return sb.String()
}

// errAt builds a semantic Error (no byte offset; line when the encoding
// recorded one).
func errAt(format string, line int, elem, msg string, args ...any) error {
	return &Error{
		Format: format,
		Line:   line,
		Offset: -1,
		Elem:   elem,
		Msg:    fmt.Sprintf(msg, args...),
	}
}

// Block terminator kinds accepted by both encodings. "fall" marks a block
// with no terminator that flows into the next block.
const (
	kindCond  = "cond"
	kindBr    = "br"
	kindIJump = "ijump"
	kindRet   = "ret"
	kindHalt  = "halt"
	kindFall  = "fall"
)

// doc is the shared decoded form both encodings lower to; build.go turns it
// into an ir.Program + profile.Profile.
type doc struct {
	format   string
	name     string
	memWords int
	entry    string
	instrs   uint64
	procs    []docProc
}

type docProc struct {
	name       string
	entryCount uint64
	line       int
	blocks     []docBlock
}

type docBlock struct {
	label string
	size  int
	kind  string
	calls []string
	edges []docEdge
	line  int
}

type docEdge struct {
	to     int
	weight uint64
	taken  bool
	line   int
}

// elem naming helpers keep error text consistent across encodings.
func procElem(name string) string { return fmt.Sprintf("proc %q", name) }

func blockElem(proc string, id int) string { return fmt.Sprintf("proc %q block %d", proc, id) }

func edgeElem(proc string, from, to int) string {
	return fmt.Sprintf("proc %q edge %d->%d", proc, from, to)
}

// looksJSON reports whether data starts (after whitespace) with a JSON
// object opener.
func looksJSON(data []byte) bool {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}
