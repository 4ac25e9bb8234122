package sim

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"balign/internal/ir"
	"balign/internal/kernel"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
)

// KernelMode selects how a grid cell's simulation executes.
type KernelMode string

const (
	// KernelFlat runs the compiled flattened kernel (internal/kernel): the
	// default fast path.
	KernelFlat KernelMode = "flat"
	// KernelRef runs the interface-dispatched reference simulators in
	// internal/predict: the slow oracle path the kernel is differentially
	// tested against.
	KernelRef KernelMode = "ref"
)

// KernelModes lists the valid kernel modes in preference order.
func KernelModes() []KernelMode { return []KernelMode{KernelFlat, KernelRef} }

// modeList renders a mode list for error messages, so the message can never
// drift from the actual set of accepted values.
func modeList[T ~string](modes []T) string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = string(m)
	}
	return strings.Join(names, ", ")
}

// ParseKernelMode parses a -kernel flag value; the empty string selects the
// flat default. The error enumerates KernelModes, so the message cannot
// drift from the accepted set.
func ParseKernelMode(s string) (KernelMode, error) {
	if s == "" {
		return KernelFlat, nil
	}
	for _, m := range KernelModes() {
		if s == string(m) {
			return m, nil
		}
	}
	return "", fmt.Errorf("sim: unknown kernel mode %q (known: %s)", s, modeList(KernelModes()))
}

// ExecStats splits an executor's work into its compile and run phases. The
// JSON form is the run report's "executor" section. Keeping the phases
// separate keeps per-consumer setup (simulator construction or kernel
// compilation) out of the simulation cost.
type ExecStats struct {
	// Mode is the executor's kernel mode (flat or ref).
	Mode string `json:"mode"`
	// StreamCells counts the (variant, architecture) results
	// SimulateStream completed.
	StreamCells uint64 `json:"stream_cells"`
	// Events is the total number of break events simulated, counted once
	// per architecture.
	Events uint64 `json:"events"`
	// CompileNs is the summed simulator-construction / kernel-compilation
	// time; RunNs the summed event-consumption time.
	CompileNs int64 `json:"compile_ns"`
	RunNs     int64 `json:"run_ns"`
}

// Executor runs one variant's simulations — every architecture over one
// streamed trace — in either kernel mode. It is safe for concurrent use;
// the engine's shards share one executor so the compile/run split
// aggregates across the grid.
type Executor struct {
	mode KernelMode
	obs  *obs.Recorder

	streamCells atomic.Uint64
	events      atomic.Uint64
	compileNs   atomic.Int64
	runNs       atomic.Int64
}

// NewExecutor returns an executor in the given mode ("" = flat). rec
// receives the sim.exec.* phase counters and, in flat mode, the kernel.*
// compile/run counters; nil disables telemetry.
func NewExecutor(mode string, rec *obs.Recorder) (*Executor, error) {
	m, err := ParseKernelMode(mode)
	if err != nil {
		return nil, err
	}
	return &Executor{mode: m, obs: rec}, nil
}

// Mode returns the resolved kernel mode.
func (x *Executor) Mode() KernelMode { return x.mode }

// Stats returns a snapshot of the executor's phase-split counters.
func (x *Executor) Stats() ExecStats {
	return ExecStats{
		Mode:        string(x.mode),
		StreamCells: x.streamCells.Load(),
		Events:      x.events.Load(),
		CompileNs:   x.compileNs.Load(),
		RunNs:       x.runNs.Load(),
	}
}

// SimulateStream runs every architecture over one streamed generation of a
// variant: src's batches are broadcast through str to one consumer that
// simulates all of archs (at least one) against the shared per-program
// layout. In flat
// mode that consumer is one kernel compiled for every architecture; in ref
// mode it decodes each batch once and feeds each event to every reference
// simulator, in architecture order. The returned results are index-aligned
// with archs and identical in both modes to a reference simulator fed the
// same events one by one — the executor and grid oracles enforce this byte
// for byte.
//
// extra consumers ride the same broadcast beside the architectures' (the
// experiment grid's i-cache scoring is one): each sees every batch in
// stream order on its own goroutine, and an error from one aborts the
// broadcast like the kernel's. They produce no result and count as no
// cell.
//
// SimulateStream owns src: it is closed before returning, so an aborted
// broadcast cannot leave a generator goroutine blocked.
//
// ctx bounds the broadcast: cancelling it (a request deadline, a failing
// sibling shard) aborts the stream promptly and SimulateStream returns the
// context's error with every ring buffer released. A nil ctx means
// context.Background().
func (x *Executor) SimulateStream(ctx context.Context, str *Streamer, lay *trace.Layout, src trace.Source,
	prog *ir.Program, prof *profile.Profile, archs []predict.ArchID, extra ...func(*trace.Batch) error) ([]predict.Result, error) {
	defer src.Close()
	n := len(archs)
	if n == 0 {
		return nil, fmt.Errorf("sim: no architectures to simulate")
	}
	// The kernel modes differ only in how the consumer takes a batch and
	// returns the results: a flat kernel runs the packed batch, the
	// reference simulators are fed its decoded events.
	var (
		run     func(*trace.Batch) error
		results func() []predict.Result
	)
	cstart := time.Now()
	if x.mode == KernelRef {
		sims := make([]predict.Simulator, n)
		for i, arch := range archs {
			s, err := predict.NewSimulator(arch, prog, prof)
			if err != nil {
				return nil, err
			}
			sims[i] = s
		}
		feed := func(e trace.Event) {
			for _, s := range sims {
				s.Event(e)
			}
		}
		run = func(b *trace.Batch) error { return lay.Decode(b, feed) }
		results = func() []predict.Result {
			out := make([]predict.Result, n)
			for i, s := range sims {
				out[i] = s.Result()
			}
			return out
		}
	} else {
		k, err := kernel.CompileArchs(lay, prog, prof, archs, x.obs)
		if err != nil {
			return nil, err
		}
		run, results = k.RunBatch, k.Results
	}
	x.noteCompile(cstart)

	// The consumer's accumulators are written only by its own goroutine
	// and read after Broadcast returns (its WaitGroup orders the accesses).
	var runNs int64
	var events uint64
	consumers := append([]func(*trace.Batch) error{func(b *trace.Batch) error {
		start := time.Now()
		err := run(b)
		runNs += int64(time.Since(start))
		events += uint64(b.Len())
		return err
	}}, extra...)
	if err := str.Broadcast(ctx, src, consumers); err != nil {
		return nil, err
	}
	// Events count per architecture, as if each had consumed the stream.
	events *= uint64(n)
	x.runNs.Add(runNs)
	x.events.Add(events)
	x.obs.Add("sim.exec.run_ns", runNs)
	x.obs.Add("sim.exec.events", int64(events))
	x.streamCells.Add(uint64(n))
	x.obs.Add("sim.exec.stream_cells", int64(n))
	return results(), nil
}

func (x *Executor) noteCompile(start time.Time) {
	d := int64(time.Since(start))
	x.compileNs.Add(d)
	x.obs.Add("sim.exec.compile_ns", d)
}
