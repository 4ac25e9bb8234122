// Package load is the closed-loop load harness behind cmd/baload: RPS
// schedules (constant, ramp, sweep-to-saturation, burst), a seeded
// deterministic request corpus covering every balignd request encoding,
// bounded closed-loop workers, log-bucketed latency histograms with
// p50/p99/p999, and a stable JSON report.
//
// The harness runs in two modes sharing one code path:
//
//   - real: wall clock + HTTP transport against a live balignd, producing
//     the BENCH_serve.json saturation numbers;
//   - virtual: per-worker virtual clocks + a seeded fake transport, which
//     makes the whole run — request mix, pacing, histogram, report bytes —
//     a pure function of the seed. The determinism oracle pins the report
//     byte-identical across runs and GOMAXPROCS settings.
//
// Determinism in virtual mode does not come from serializing the workers:
// request i is handled by worker i%W, every per-request decision (corpus
// pick, fake latency, fake status) is a pure function of (seed, i), and
// all aggregates are order-independent integer sums — so any interleaving
// of the worker goroutines produces the same report bytes.
package load

import (
	"context"
	"time"
)

// Clock is the generator's notion of time since run start. Workers only
// ever sleep forward to absolute offsets, which keeps the wall and virtual
// implementations interchangeable.
type Clock interface {
	// Now returns the time elapsed since the run started.
	Now() time.Duration
	// SleepUntil blocks until offset t (no-op if already past); it reports
	// false if ctx expired first.
	SleepUntil(ctx context.Context, t time.Duration) bool
	// Advance moves time forward by d. The fake transport uses it to model
	// request latency; the wall clock ignores it (real latency elapses on
	// its own).
	Advance(d time.Duration)
}

// ClockFactory yields one Clock per worker. The wall factory hands every
// worker the same shared clock; the virtual factory hands each worker its
// own, so a worker's timeline is independent of scheduler interleaving.
type ClockFactory func() Clock

// wallClock is real time relative to a fixed start.
type wallClock struct{ start time.Time }

// NewWallClocks returns a factory sharing one wall clock anchored at now.
func NewWallClocks() ClockFactory {
	c := &wallClock{start: time.Now()}
	return func() Clock { return c }
}

func (c *wallClock) Now() time.Duration { return time.Since(c.start) }

func (c *wallClock) SleepUntil(ctx context.Context, t time.Duration) bool {
	d := t - c.Now()
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (c *wallClock) Advance(time.Duration) {}

// virtualClock is a single worker's deterministic timeline: sleeping jumps
// straight to the target offset, and fake request latency is added
// explicitly. Not safe for sharing across goroutines — by design each
// worker owns one.
type virtualClock struct{ now time.Duration }

// NewVirtualClocks returns a factory handing each worker a fresh virtual
// clock starting at zero.
func NewVirtualClocks() ClockFactory {
	return func() Clock { return &virtualClock{} }
}

func (c *virtualClock) Now() time.Duration { return c.now }

func (c *virtualClock) SleepUntil(ctx context.Context, t time.Duration) bool {
	if t > c.now {
		c.now = t
	}
	return ctx.Err() == nil
}

func (c *virtualClock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}
