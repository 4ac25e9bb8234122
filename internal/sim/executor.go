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
	// StreamCells counts per-architecture consumers completed by
	// SimulateStream.
	StreamCells uint64 `json:"stream_cells"`
	// Events is the total number of break events simulated.
	Events uint64 `json:"events"`
	// CompileNs is the summed simulator-construction / kernel-compilation
	// time; RunNs the summed event-consumption time.
	CompileNs int64 `json:"compile_ns"`
	RunNs     int64 `json:"run_ns"`
	// Shards is the configured intra-variant shard count (1 = unsharded).
	// ForwardNs and ForwardEvents sum the shards' state-forwarding passes
	// over batches they do not own — the sharding overhead that buys the
	// parallel accumulation (see kernel.ForwardBatch).
	Shards        int    `json:"shards"`
	ForwardNs     int64  `json:"forward_ns"`
	ForwardEvents uint64 `json:"forward_events"`
}

// Executor runs one variant's simulations — every architecture over one
// streamed trace — in either kernel mode. It is safe for concurrent use;
// the engine's shards share one executor so the compile/run split
// aggregates across the grid.
type Executor struct {
	mode   KernelMode
	obs    *obs.Recorder
	shards int

	streamCells   atomic.Uint64
	events        atomic.Uint64
	compileNs     atomic.Int64
	runNs         atomic.Int64
	forwardNs     atomic.Int64
	forwardEvents atomic.Uint64
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

// SetShards sets the intra-variant shard count SimulateStream uses in flat
// mode: each architecture gets n kernel consumers that split the stream's
// batches round-robin, every shard forwarding predictor state over batches
// it does not own and accumulating over batches it does, so the merged
// tallies are bit-identical to the unsharded run (see kernel.ForwardBatch
// and kernel.Merge). Values below 2 mean unsharded; the ref mode always
// runs unsharded. SetShards must be called before the executor is shared
// across goroutines — it is configuration, not a runtime control.
func (x *Executor) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	x.shards = n
}

// Shards returns the configured intra-variant shard count (minimum 1).
func (x *Executor) Shards() int {
	if x.shards < 1 {
		return 1
	}
	return x.shards
}

// Stats returns a snapshot of the executor's phase-split counters.
func (x *Executor) Stats() ExecStats {
	return ExecStats{
		Mode:          string(x.mode),
		StreamCells:   x.streamCells.Load(),
		Events:        x.events.Load(),
		CompileNs:     x.compileNs.Load(),
		RunNs:         x.runNs.Load(),
		Shards:        x.Shards(),
		ForwardNs:     x.forwardNs.Load(),
		ForwardEvents: x.forwardEvents.Load(),
	}
}

// SimulateStream runs every architecture over one streamed generation of a
// variant: src's batches are broadcast through str, each architecture
// consuming them incrementally against the shared per-program layout. The
// returned results are index-aligned with archs and identical in both
// kernel modes to a reference simulator fed the same events one by one —
// the executor and grid oracles enforce this byte for byte.
//
// In flat mode with SetShards(S>1), each architecture fans out to S shard
// consumers on their own goroutines. Shard j owns the batches whose stream
// index is ≡ j (mod S): it accumulates tallies over those with RunBatch and
// replays only predictor state over the rest with ForwardBatch, so each
// owned batch executes from exactly the predictor state the unsharded run
// had there. The shards' accumulators are then folded with kernel.Merge —
// a plain field sum — which makes the sharded result bit-identical to the
// unsharded one for every shard count; the shard-merge property tests and
// the parallel-determinism oracle enforce this.
//
// extra consumers ride the same broadcast beside the architectures' (the
// experiment grid's i-cache scoring is one): each sees every batch in
// stream order on its own goroutine, unsharded, and an error from one
// aborts the broadcast like a kernel's. They produce no result and count as
// no cell.
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
	if n == 0 && len(extra) == 0 {
		return nil, nil
	}
	shards := x.Shards()
	if x.mode == KernelRef {
		// The reference simulators have no state-forwarding primitive;
		// they always consume whole streams.
		shards = 1
	}
	nc := n * shards
	consumers := make([]func(*trace.Batch) error, nc)
	finish := make([]func() (predict.Result, error), n)
	// Per-consumer accumulators, each written only by its own goroutine and
	// read after Broadcast returns (its WaitGroup orders the accesses).
	runNs := make([]int64, nc)
	events := make([]uint64, nc)
	forwardNs := make([]int64, nc)
	forwardEvents := make([]uint64, nc)

	cstart := time.Now()
	switch x.mode {
	case KernelRef:
		for i, arch := range archs {
			s, err := predict.NewSimulator(arch, prog, prof)
			if err != nil {
				return nil, err
			}
			consumers[i] = func(b *trace.Batch) error {
				start := time.Now()
				err := lay.Decode(b, func(e trace.Event) { s.Event(e) })
				runNs[i] += int64(time.Since(start))
				events[i] += uint64(b.Len())
				return err
			}
			finish[i] = func() (predict.Result, error) { return s.Result(), nil }
		}
	default:
		for i, arch := range archs {
			ks := make([]*kernel.Kernel, shards)
			for j := range ks {
				k, err := kernel.CompileArch(lay, prog, prof, arch, x.obs)
				if err != nil {
					return nil, err
				}
				ks[j] = k
				c := i*shards + j
				// Each consumer sees every batch in stream order, so a
				// local index decides ownership: batch b belongs to shard
				// b mod shards.
				var batchIdx int
				consumers[c] = func(b *trace.Batch) error {
					own := shards == 1 || batchIdx%shards == j
					batchIdx++
					start := time.Now()
					if !own {
						err := k.ForwardBatch(b)
						forwardNs[c] += int64(time.Since(start))
						forwardEvents[c] += uint64(b.Len())
						return err
					}
					err := k.RunBatch(b)
					runNs[c] += int64(time.Since(start))
					events[c] += uint64(b.Len())
					return err
				}
			}
			finish[i] = func() (predict.Result, error) {
				for j := 1; j < len(ks); j++ {
					if err := ks[0].Merge(ks[j]); err != nil {
						return predict.Result{}, err
					}
				}
				return ks[0].Result(), nil
			}
		}
	}
	x.noteCompile(cstart)

	if err := str.Broadcast(ctx, src, append(consumers, extra...)); err != nil {
		return nil, err
	}
	results := make([]predict.Result, n)
	for i := range finish {
		r, err := finish[i]()
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	var totalNs, totalFwdNs int64
	var totalEvents, totalFwdEvents uint64
	for i := range runNs {
		totalNs += runNs[i]
		totalEvents += events[i]
		totalFwdNs += forwardNs[i]
		totalFwdEvents += forwardEvents[i]
	}
	x.runNs.Add(totalNs)
	x.events.Add(totalEvents)
	x.forwardNs.Add(totalFwdNs)
	x.forwardEvents.Add(totalFwdEvents)
	x.obs.Add("sim.exec.run_ns", totalNs)
	x.obs.Add("sim.exec.events", int64(totalEvents))
	x.obs.Add("sim.exec.forward_ns", totalFwdNs)
	x.obs.Add("sim.exec.forward_events", int64(totalFwdEvents))
	x.streamCells.Add(uint64(nc))
	x.obs.Add("sim.exec.stream_cells", int64(nc))
	return results, nil
}

func (x *Executor) noteCompile(start time.Time) {
	d := int64(time.Since(start))
	x.compileNs.Add(d)
	x.obs.Add("sim.exec.compile_ns", d)
}
