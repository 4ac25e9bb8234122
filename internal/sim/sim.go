// Package sim is the parallel experiment engine behind the evaluation
// harness. The paper's tables sweep a {program x architecture x algorithm}
// grid of trace-driven simulations; every cell of that grid is independent,
// so the engine shards cells across a bounded worker pool (one worker per
// runtime.GOMAXPROCS by default) with context cancellation and
// deterministic first-error propagation.
//
// Two properties make the parallel harness trustworthy:
//
//   - every task writes only its own result slot and the caller reduces the
//     slots in canonical (task-list) order, so a parallel run's output is
//     byte-identical to the serial run's;
//   - Parallelism = 1 degenerates to a plain in-order loop on the calling
//     goroutine — the serial oracle the differential tests compare against.
//
// The companion Streamer (stream.go) generates each program variant's trace
// exactly once and broadcasts it, batch by batch, to every simulator that
// needs it; the Executor (executor.go) supplies those simulators.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"balign/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// Parallelism bounds the number of concurrently executing tasks.
	// 0 (or negative) means runtime.GOMAXPROCS(0); 1 selects the serial
	// oracle path (a plain loop, no goroutines).
	Parallelism int
	// Log receives per-shard progress lines; nil (the default) discards
	// them.
	Log io.Writer
	// Obs receives run telemetry: one span per Run with a child span per
	// shard (queue wait, run time) plus engine counters. Nil disables
	// telemetry at zero cost; telemetry never influences scheduling or
	// results, so byte-determinism holds either way.
	Obs *obs.Recorder
}

// Task is one shard of an experiment grid: an independent unit of work with
// a label for progress logging and timing attribution.
type Task struct {
	Label string
	Run   func(ctx context.Context) error
}

// Engine executes task grids with bounded parallelism. The zero value is
// not usable; call New. An Engine may be reused across many Run calls and
// is safe for concurrent use. Its counts go to Options.Obs: the sim.tasks
// counter, the sim.task_errors counter of root-cause errors (a shard that
// fails only because another's failure cancelled it is not counted), and
// one sim.run span per Run.
type Engine struct {
	opts  Options
	logMu sync.Mutex
}

// New returns an engine with the given options.
func New(opts Options) *Engine { return &Engine{opts: opts} }

// Parallelism returns the resolved worker count.
func (e *Engine) Parallelism() int {
	if e.opts.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.opts.Parallelism
}

// Serial reports whether the engine runs the serial oracle path.
func (e *Engine) Serial() bool { return e.Parallelism() == 1 }

// Logf writes one progress line to Options.Log. It is safe for concurrent
// use and a no-op when Log is nil.
func (e *Engine) Logf(format string, args ...any) {
	if e.opts.Log == nil {
		return
	}
	e.logMu.Lock()
	fmt.Fprintf(e.opts.Log, format+"\n", args...)
	e.logMu.Unlock()
}

// Run executes every task, at most Parallelism at a time, and returns the
// first error in task order (the same error a serial in-order run would
// return first, since later tasks are cancelled). A nil ctx means
// context.Background().
//
// With Parallelism = 1 the tasks run in order on the calling goroutine and
// execution stops at the first error — the serial oracle path.
func (e *Engine) Run(ctx context.Context, tasks []Task) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(tasks) == 0 {
		return ctx.Err()
	}
	workers := e.Parallelism()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	r := &runState{span: e.opts.Obs.Span("sim.run"), queued: time.Now()}
	r.span.SetInt("tasks", int64(len(tasks)))
	r.span.SetInt("workers", int64(workers))
	err := e.run(ctx, tasks, workers, r)
	if r.span != nil {
		wall := time.Since(r.queued)
		busy := r.busyNs.Load()
		r.span.SetInt("busy_ns", busy)
		if wall > 0 {
			// Worker utilization in basis points: 10000 means every
			// worker was busy for the whole run.
			r.span.SetInt("util_bp", busy*10000/(int64(workers)*int64(wall)))
		}
		r.span.End()
	}
	return err
}

// runState is one Run call's shared state: its span, its submission time
// (every task queues from it) and the summed wall-clock time of its
// completed tasks.
type runState struct {
	span   *obs.Span
	queued time.Time
	busyNs atomic.Int64
}

func (e *Engine) run(ctx context.Context, tasks []Task, workers int, r *runState) error {
	if e.Serial() || len(tasks) == 1 {
		for i := range tasks {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := e.exec(ctx, &tasks[i], r); err != nil {
				e.opts.Obs.Add("sim.task_errors", 1)
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Every task writes only its own error slot and the scan below picks
	// the lowest-indexed one, so the reported error is the one a serial
	// in-order run would have hit first. A failing task cancels the
	// context; in-flight tasks then typically abort with ctx.Err(), and
	// those cancellation-fallout errors must NOT be recorded — an aborted
	// earlier task would otherwise land context.Canceled in a lower slot
	// and mask the root cause. The cancelled flag is ordered before
	// cancel(), and a task can only observe the cancelled context after
	// cancel(), so any task returning context.Canceled while the flag is
	// set is fallout, not a root cause. (A task failing with its own real
	// error after cancellation is still recorded: serially it would have
	// failed too.)
	errs := make([]error, len(tasks))
	var cancelled atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				if err := e.exec(ctx, &tasks[i], r); err != nil {
					if cancelled.Load() && errors.Is(err, context.Canceled) {
						continue
					}
					errs[i] = err
					e.opts.Obs.Add("sim.task_errors", 1)
					cancelled.Store(true)
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

func (e *Engine) exec(ctx context.Context, t *Task, r *runState) error {
	start := time.Now()
	sp := r.span.Child(t.Label)
	sp.SetInt("queue_wait_ns", int64(start.Sub(r.queued)))
	err := t.Run(ctx)
	sp.End()
	elapsed := time.Since(start)
	r.busyNs.Add(int64(elapsed))
	e.opts.Obs.Add("sim.tasks", 1)
	if err != nil {
		e.Logf("sim: shard %s failed after %v: %v", t.Label, elapsed.Round(time.Microsecond), err)
		return err
	}
	e.Logf("sim: shard %s done in %v", t.Label, elapsed.Round(time.Microsecond))
	return nil
}
