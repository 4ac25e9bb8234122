package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"balign/internal/obs"
)

func TestRunExecutesEveryTask(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		rec := obs.New("test")
		eng := New(Options{Parallelism: par, Obs: rec})
		var ran [50]atomic.Int32
		tasks := make([]Task, len(ran))
		for i := range tasks {
			i := i
			tasks[i] = Task{Label: fmt.Sprintf("t%d", i), Run: func(context.Context) error {
				ran[i].Add(1)
				return nil
			}}
		}
		if err := eng.Run(context.Background(), tasks); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Errorf("par=%d: task %d ran %d times", par, i, n)
			}
		}
		if n := rec.Report().Counters["sim.tasks"]; n != int64(len(tasks)) {
			t.Errorf("par=%d: sim.tasks = %d, want %d", par, n, len(tasks))
		}
	}
}

func TestRunBoundsParallelism(t *testing.T) {
	const par = 3
	eng := New(Options{Parallelism: par})
	var active, peak atomic.Int32
	var mu sync.Mutex
	tasks := make([]Task, 40)
	for i := range tasks {
		tasks[i] = Task{Label: "t", Run: func(context.Context) error {
			n := active.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			active.Add(-1)
			return nil
		}}
	}
	if err := eng.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > par {
		t.Errorf("peak concurrency %d exceeds parallelism %d", p, par)
	}
}

func TestRunFirstErrorInTaskOrder(t *testing.T) {
	// Two failing tasks: the reported error must be the one a serial run
	// would hit first, regardless of parallel completion order.
	errA := errors.New("task 3 failed")
	errB := errors.New("task 7 failed")
	for _, par := range []int{1, 8} {
		eng := New(Options{Parallelism: par})
		tasks := make([]Task, 10)
		for i := range tasks {
			i := i
			tasks[i] = Task{Label: fmt.Sprintf("t%d", i), Run: func(context.Context) error {
				switch i {
				case 3:
					return errA
				case 7:
					return errB
				}
				return nil
			}}
		}
		err := eng.Run(context.Background(), tasks)
		if !errors.Is(err, errA) {
			t.Errorf("par=%d: got %v, want the task-order-first error %v", par, err, errA)
		}
	}
}

// TestRunReportsRootCauseNotCancellation is the regression test for the
// error-masking bug: when a later task fails and cancels the context, an
// earlier in-flight task that aborts with ctx.Err() used to land
// context.Canceled in a lower error slot, and Run reported that instead of
// the root cause. The serial oracle would have reported the real error.
func TestRunReportsRootCauseNotCancellation(t *testing.T) {
	boom := errors.New("root cause")
	for trial := 0; trial < 20; trial++ {
		rec := obs.New("test")
		eng := New(Options{Parallelism: 2, Obs: rec})
		started := make(chan struct{})
		tasks := []Task{
			{Label: "victim", Run: func(ctx context.Context) error {
				close(started)
				// Aborts only because the culprit's failure cancelled the
				// run; its ctx.Err() must not mask the culprit's error.
				<-ctx.Done()
				return ctx.Err()
			}},
			{Label: "culprit", Run: func(ctx context.Context) error {
				<-started
				return boom
			}},
		}
		if err := eng.Run(context.Background(), tasks); !errors.Is(err, boom) {
			t.Fatalf("trial %d: Run = %v, want root cause %v", trial, err, boom)
		}
		// The victim's cancellation is fallout, not a second error.
		if n := rec.Report().Counters["sim.task_errors"]; n != 1 {
			t.Fatalf("trial %d: sim.task_errors = %d, want the root cause alone", trial, n)
		}
	}
}

// TestRunWrappedCancellationDoesNotMask covers the realistic shape of the
// bug: tasks wrap ctx.Err() with context (as runCell does with %w).
func TestRunWrappedCancellationDoesNotMask(t *testing.T) {
	boom := errors.New("root cause")
	eng := New(Options{Parallelism: 2})
	started := make(chan struct{})
	tasks := []Task{
		{Label: "victim", Run: func(ctx context.Context) error {
			close(started)
			<-ctx.Done()
			return fmt.Errorf("evaluating shard: %w", ctx.Err())
		}},
		{Label: "culprit", Run: func(ctx context.Context) error {
			<-started
			return boom
		}},
	}
	if err := eng.Run(context.Background(), tasks); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want root cause %v", err, boom)
	}
}

func TestRunCancellationStopsWork(t *testing.T) {
	eng := New(Options{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	tasks := []Task{{Label: "t", Run: func(context.Context) error {
		ran.Add(1)
		return nil
	}}}
	if err := eng.Run(ctx, tasks); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("task ran despite pre-cancelled context")
	}
}

func TestRunErrorCancelsRemainingTasks(t *testing.T) {
	// Serial path: tasks after the failing one must not run.
	eng := New(Options{Parallelism: 1})
	var ran []int
	boom := errors.New("boom")
	tasks := make([]Task, 6)
	for i := range tasks {
		i := i
		tasks[i] = Task{Label: "t", Run: func(context.Context) error {
			ran = append(ran, i)
			if i == 2 {
				return boom
			}
			return nil
		}}
	}
	if err := eng.Run(context.Background(), tasks); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 3 {
		t.Errorf("serial run executed %v, want exactly tasks 0..2", ran)
	}
}

// TestRunTelemetrySpans checks the engine's obs integration: one run span
// per Run call, one child span per shard with a queue-wait attribute, and
// the task counters.
func TestRunTelemetrySpans(t *testing.T) {
	for _, par := range []int{1, 4} {
		rec := obs.New("test")
		eng := New(Options{Parallelism: par, Obs: rec})
		tasks := make([]Task, 6)
		for i := range tasks {
			tasks[i] = Task{Label: fmt.Sprintf("t%d", i), Run: func(context.Context) error { return nil }}
		}
		if err := eng.Run(context.Background(), tasks); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		rep := rec.Report()
		if rep.Counters["sim.tasks"] != int64(len(tasks)) {
			t.Errorf("par=%d: sim.tasks = %d, want %d", par, rep.Counters["sim.tasks"], len(tasks))
		}
		if len(rep.Spans) != 1 || rep.Spans[0].Name != "sim.run" {
			t.Fatalf("par=%d: spans = %+v", par, rep.Spans)
		}
		run := rep.Spans[0]
		if run.Open {
			t.Errorf("par=%d: run span left open", par)
		}
		if run.Attrs["tasks"] != int64(len(tasks)) {
			t.Errorf("par=%d: run attrs = %v", par, run.Attrs)
		}
		if len(run.Children) != len(tasks) {
			t.Fatalf("par=%d: %d shard spans, want %d", par, len(run.Children), len(tasks))
		}
		for _, c := range run.Children {
			if _, ok := c.Attrs["queue_wait_ns"]; !ok || c.Open {
				t.Errorf("par=%d: shard span %s missing queue wait or left open: %+v", par, c.Name, c)
			}
		}
		if n := rep.Counters["sim.task_errors"]; n != 0 {
			t.Errorf("par=%d: sim.task_errors = %d, want 0", par, n)
		}
		if run.Attrs["busy_ns"] <= 0 {
			t.Errorf("par=%d: run span busy_ns = %d, want positive", par, run.Attrs["busy_ns"])
		}
	}
}

func TestVerboseLogging(t *testing.T) {
	var sb strings.Builder
	eng := New(Options{Parallelism: 1, Log: &sb})
	tasks := []Task{{Label: "alpha", Run: func(context.Context) error { return nil }}}
	if err := eng.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "alpha") {
		t.Errorf("verbose log missing shard label:\n%s", sb.String())
	}
}
