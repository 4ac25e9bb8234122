// Package trace defines the dynamic control-transfer event stream that
// connects program execution (the VM or the synthetic walker) to the branch
// prediction simulators, mirroring what the paper gathered with ATOM.
//
// Every break in control flow — conditional branch, unconditional branch,
// direct call, indirect jump, return — produces one Event carrying the site
// address, the actual destination and, for conditionals, the outcome.
// Predictors consume only this stream, so any producer (real execution,
// profile-faithful random walk) can drive any architecture simulator.
package trace

import "balign/internal/ir"

// Event is one dynamic break in control flow.
type Event struct {
	// PC is the address of the control-transfer instruction.
	PC uint64
	// Kind is the instruction's break kind (CondBr, Br, Call, IJump, Ret).
	Kind ir.Kind
	// Taken reports the outcome of a conditional branch; it is true for all
	// other kinds (they always transfer control).
	Taken bool
	// Target is the address control actually went to.
	Target uint64
	// TakenTarget is the destination encoded in the instruction: for a
	// conditional branch, its taken target regardless of the outcome (the
	// displacement a BT/FNT predictor inspects); for every other kind it
	// equals Target.
	TakenTarget uint64
	// Fall is the address of the next sequential instruction (PC + 4); the
	// fetch unit fetches from here while the branch is decoded.
	Fall uint64
}

// Sink consumes control-transfer events in program order.
type Sink interface {
	Event(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Event implements Sink.
func (f SinkFunc) Event(e Event) { f(e) }

// EdgeSink consumes control-flow-graph-level observations: intraprocedural
// block-to-block transitions, conditional branch outcomes and instruction
// counts. Profile collection implements this interface.
type EdgeSink interface {
	// Edge records one traversal of the intraprocedural edge from -> to in
	// procedure procIdx.
	Edge(procIdx int, from, to ir.BlockID)
	// Branch records the outcome of the conditional branch terminating
	// the given block.
	Branch(procIdx int, block ir.BlockID, taken bool)
	// Instrs adds n executed instructions.
	Instrs(n uint64)
}

// NopEdgeSink discards all edge observations.
type NopEdgeSink struct{}

// Edge implements EdgeSink.
func (NopEdgeSink) Edge(int, ir.BlockID, ir.BlockID) {}

// Branch implements EdgeSink.
func (NopEdgeSink) Branch(int, ir.BlockID, bool) {}

// Instrs implements EdgeSink.
func (NopEdgeSink) Instrs(uint64) {}

// Counter is a Sink that tallies events by kind and outcome; it provides the
// raw numbers behind the paper's Table 2 break-mix columns.
type Counter struct {
	Total     uint64
	ByKind    [8]uint64 // indexed by ir.Kind
	CondTaken uint64
	CondFall  uint64
}

// Event implements Sink.
func (c *Counter) Event(e Event) {
	c.Total++
	c.ByKind[e.Kind]++
	if e.Kind == ir.CondBr {
		if e.Taken {
			c.CondTaken++
		} else {
			c.CondFall++
		}
	}
}

// Recorder is a Sink that stores every event; intended for tests and small
// examples, not multi-million-event runs.
type Recorder struct {
	Events []Event
}

// Event implements Sink.
func (r *Recorder) Event(e Event) { r.Events = append(r.Events, e) }
