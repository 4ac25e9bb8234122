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
	// Verbose enables per-shard progress logging to Log.
	Verbose bool
	// Log receives progress output when Verbose is set; nil discards it.
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

// Stats summarizes what an engine has executed so far. The JSON form is
// part of the run-report schema (the report's "engine" section).
type Stats struct {
	// Tasks is the number of shards that ran to completion.
	Tasks uint64 `json:"tasks"`
	// Errors is the number of shards that returned a root-cause error
	// (cancellation fallout from another shard's failure is not counted).
	Errors uint64 `json:"errors"`
	// Busy is the summed wall-clock time of all completed shards; on a
	// multi-core run it exceeds elapsed time by roughly the achieved
	// parallelism.
	Busy time.Duration `json:"busy_ns"`
	// QueueWait is the summed time shards spent waiting between Run
	// submission and the start of their execution — the engine's
	// queue-wait-vs-run-time split.
	QueueWait time.Duration `json:"queue_wait_ns"`
}

// Engine executes task grids with bounded parallelism. The zero value is
// not usable; call New. An Engine may be reused across many Run calls and
// is safe for concurrent use.
type Engine struct {
	opts    Options
	logMu   sync.Mutex
	tasks   atomic.Uint64
	errs    atomic.Uint64
	busyNs  atomic.Int64
	queueNs atomic.Int64
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

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Tasks:     e.tasks.Load(),
		Errors:    e.errs.Load(),
		Busy:      time.Duration(e.busyNs.Load()),
		QueueWait: time.Duration(e.queueNs.Load()),
	}
}

// Logf writes one progress line when the engine is verbose. It is safe for
// concurrent use and a no-op otherwise.
func (e *Engine) Logf(format string, args ...any) {
	if !e.opts.Verbose || e.opts.Log == nil {
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
	start := time.Now()
	busy0 := e.busyNs.Load()
	span := e.opts.Obs.Span("sim.run")
	span.SetInt("tasks", int64(len(tasks)))
	span.SetInt("workers", int64(workers))
	err := e.run(ctx, tasks, workers, span, start)
	if span != nil {
		wall := time.Since(start)
		busy := e.busyNs.Load() - busy0
		span.SetInt("busy_ns", busy)
		if wall > 0 {
			// Worker utilization in basis points: 10000 means every
			// worker was busy for the whole run.
			span.SetInt("util_bp", busy*10000/(int64(workers)*int64(wall)))
		}
		span.End()
	}
	return err
}

func (e *Engine) run(ctx context.Context, tasks []Task, workers int, span *obs.Span, queued time.Time) error {
	if e.Serial() || len(tasks) == 1 {
		for i := range tasks {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := e.exec(ctx, &tasks[i], span, queued); err != nil {
				e.errs.Add(1)
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
				if err := e.exec(ctx, &tasks[i], span, queued); err != nil {
					if cancelled.Load() && errors.Is(err, context.Canceled) {
						continue
					}
					errs[i] = err
					e.errs.Add(1)
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

func (e *Engine) exec(ctx context.Context, t *Task, parent *obs.Span, queued time.Time) error {
	start := time.Now()
	wait := start.Sub(queued)
	sp := parent.Child(t.Label)
	sp.SetInt("queue_wait_ns", int64(wait))
	err := t.Run(ctx)
	sp.End()
	elapsed := time.Since(start)
	e.tasks.Add(1)
	e.busyNs.Add(int64(elapsed))
	e.queueNs.Add(int64(wait))
	e.opts.Obs.Add("sim.tasks", 1)
	if err != nil {
		e.opts.Obs.Add("sim.task_errors", 1)
		e.Logf("sim: shard %s failed after %v: %v", t.Label, elapsed.Round(time.Microsecond), err)
		return err
	}
	e.Logf("sim: shard %s done in %v", t.Label, elapsed.Round(time.Microsecond))
	return nil
}
