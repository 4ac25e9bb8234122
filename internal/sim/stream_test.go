package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"balign/internal/ir"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/workload"
)

// streamFixture records one workload trace with a trace.Recorder and
// exposes it both as the raw event list (for the reference simulators) and
// as a replaying Source factory (for SimulateStream), so the two sides
// consume identical streams.
type streamFixture struct {
	w      *workload.Workload
	prof   *profile.Profile
	events []trace.Event
	instrs uint64
	lay    *trace.Layout
}

func newStreamFixture(t *testing.T) *streamFixture {
	t.Helper()
	w, err := workload.ByName("eqntott", workload.Config{Scale: 0.05})
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	prof, _, err := w.CollectProfile()
	if err != nil {
		t.Fatalf("CollectProfile: %v", err)
	}
	var rec trace.Recorder
	instrs, err := w.Run(w.Prog, prof, &rec, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	lay, err := trace.CompileLayout(w.Prog)
	if err != nil {
		t.Fatalf("CompileLayout: %v", err)
	}
	return &streamFixture{w: w, prof: prof, events: rec.Events, instrs: instrs, lay: lay}
}

// source returns a fresh Source replaying the fixture's recorded stream.
func (f *streamFixture) source(t *testing.T, batchCap int) trace.Source {
	return f.packed(t, batchCap, -1, nil)
}

// packed returns a synchronous Source serving the fixture's events packed
// into batches of batchCap (0 means trace.DefaultBatchCap). If at is
// nonnegative, fault runs when batch at (0-based) is requested: a non-nil
// error fails that Fill, and nil lets the stream go on.
func (f *streamFixture) packed(t *testing.T, batchCap, at int, fault func() error) *packedSource {
	t.Helper()
	if batchCap <= 0 {
		batchCap = trace.DefaultBatchCap
	}
	src := &packedSource{instrs: f.instrs, at: at, fault: fault}
	for i := 0; i < len(f.events); i += batchCap {
		var b trace.Batch
		for _, e := range f.events[i:min(i+batchCap, len(f.events))] {
			if err := f.lay.Append(&b, e); err != nil {
				t.Fatalf("packing the fixture: %v", err)
			}
		}
		src.batches = append(src.batches, b)
	}
	return src
}

// packedSource is a test Source over pre-packed batches, with an optional
// fault at one batch.
type packedSource struct {
	batches []trace.Batch
	next    int
	instrs  uint64
	at      int
	fault   func() error
}

func (s *packedSource) Fill(b *trace.Batch) (bool, error) {
	b.Reset()
	if s.next == s.at {
		if err := s.fault(); err != nil {
			return false, err
		}
	}
	if s.next >= len(s.batches) {
		return false, nil
	}
	src := &s.batches[s.next]
	b.Ops = append(b.Ops, src.Ops...)
	b.Targets = append(b.Targets, src.Targets...)
	s.next++
	return true, nil
}

func (s *packedSource) Instrs() uint64 { return s.instrs }

func (s *packedSource) Close() {}

// reference feeds the fixture's events one by one to a fresh reference
// simulator per architecture and returns their results, index-aligned
// with archs.
func (f *streamFixture) reference(t *testing.T, archs []predict.ArchID) []predict.Result {
	t.Helper()
	out := make([]predict.Result, len(archs))
	for i, arch := range archs {
		s, err := predict.NewSimulator(arch, f.w.Prog, f.prof)
		if err != nil {
			t.Fatalf("%s: NewSimulator: %v", arch, err)
		}
		for _, e := range f.events {
			s.Event(e)
		}
		out[i] = s.Result()
	}
	return out
}

// TestSimulateStreamMatchesReference is the executor half of the streaming
// oracle: for both kernel modes, one broadcast generation over all
// architectures must reproduce the reference simulators fed the recorded
// events directly.
func TestSimulateStreamMatchesReference(t *testing.T) {
	f := newStreamFixture(t)
	archs := predict.AllArchs()
	want := f.reference(t, archs)
	for _, mode := range []KernelMode{KernelFlat, KernelRef} {
		t.Run(string(mode), func(t *testing.T) {
			rec := obs.New("test")
			x, err := NewExecutor(string(mode), rec)
			if err != nil {
				t.Fatal(err)
			}
			str := NewStreamer(rec)
			got, err := x.SimulateStream(nil, str, f.lay, f.source(t, 512), f.w.Prog, f.prof, archs)
			if err != nil {
				t.Fatalf("SimulateStream: %v", err)
			}
			for i, arch := range archs {
				if got[i] != want[i] {
					t.Errorf("%s: streamed and reference results differ:\n stream    %+v\n reference %+v",
						arch, got[i], want[i])
				}
			}

			rep := rec.Report()
			c, g := rep.Counters, rep.Gauges
			if c["sim.stream.broadcasts"] != 1 {
				t.Errorf("sim.stream.broadcasts = %d, want 1", c["sim.stream.broadcasts"])
			}
			if c["sim.stream.events"] != int64(len(f.events)) {
				t.Errorf("sim.stream.events = %d, want %d", c["sim.stream.events"], len(f.events))
			}
			if wantBatches := (int64(len(f.events)) + 511) / 512; c["sim.stream.batches"] != wantBatches {
				t.Errorf("sim.stream.batches = %d, want %d", c["sim.stream.batches"], wantBatches)
			}
			if g["sim.stream.peak_live_bytes"] == 0 {
				t.Error("sim.stream.peak_live_bytes = 0, want the buffer's footprint recorded")
			}
			checkBuffersDrained(t, rec)
			if n := c["sim.exec.stream_cells"]; n != int64(len(archs)) {
				t.Errorf("sim.exec.stream_cells = %d, want %d", n, len(archs))
			}
		})
	}
}

// TestSimulateStreamBoundedMemory pins the headline memory property: a
// broadcast pins one batch, so its peak footprint is its one buffer's,
// far below the whole trace's as 48-byte events.
func TestSimulateStreamBoundedMemory(t *testing.T) {
	f := newStreamFixture(t)
	x, err := NewExecutor("", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New("test")
	str := NewStreamer(rec)
	if _, err := x.SimulateStream(nil, str, f.lay, f.source(t, 1024), f.w.Prog, f.prof, predict.AllArchs()); err != nil {
		t.Fatal(err)
	}
	peak := rec.Report().Gauges["sim.stream.peak_live_bytes"]
	if len(str.arena) != 1 || peak != int64(str.arena[0].SizeBytes()) {
		t.Errorf("peak %d bytes over %d arena buffers; want one buffer's footprint", peak, len(str.arena))
	}
	whole := int64(len(f.events)) * int64(unsafe.Sizeof(trace.Event{}))
	if peak*5 > whole {
		t.Errorf("streaming peak %d bytes is not >=5x below the recorded trace's %d bytes", peak, whole)
	}
}

// TestBroadcastConsumerError: a failing consumer must abort the broadcast
// at its batch and surface its error. The consumer before it saw that one
// batch.
func TestBroadcastConsumerError(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(rec)
	healthy := 0
	err := str.Broadcast(nil, f.source(t, 64), []func(*trace.Batch) error{
		func(*trace.Batch) error { healthy++; return nil },
		func(*trace.Batch) error { return fmt.Errorf("consumer blew up") },
	})
	if err == nil || !strings.Contains(err.Error(), "consumer blew up") {
		t.Fatalf("Broadcast error = %v, want consumer failure", err)
	}
	checkBuffersDrained(t, rec)
	if healthy != 1 || rec.Report().Counters["sim.stream.batches"] != 1 {
		t.Errorf("healthy consumer saw %d batches of %d streamed; want the failing batch alone",
			healthy, rec.Report().Counters["sim.stream.batches"])
	}
}

// faultBatches are the batch indexes the fault-matrix cases fail or
// cancel at: the first batch, the second, and two deeper in the stream.
var faultBatches = []int{0, 1, 3, 7}

// TestBroadcastSourceError is the failing-source case of the
// mid-pipeline fault matrix: a source that packs k full batches and then
// an event at a PC with no layout slot. SimulateStream over every
// architecture plus one extra consumer must return the source's packing
// error, every consumer must have seen exactly the k good batches, the
// live gauges must drain to zero, and the goroutine count must not move.
func TestBroadcastSourceError(t *testing.T) {
	f := newStreamFixture(t)
	archs := predict.AllArchs()
	for _, k := range faultBatches {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			start := runtime.NumGoroutine()
			rec := obs.New("test")
			x, err := NewExecutor("", rec)
			if err != nil {
				t.Fatal(err)
			}
			src := f.packed(t, 16, k, func() error {
				// A PC with no layout slot fails the fill's packing.
				var b trace.Batch
				return f.lay.Append(&b, trace.Event{PC: 0xbad0_0000, Kind: ir.CondBr})
			})
			extra := 0
			_, err = x.SimulateStream(nil, NewStreamer(rec), f.lay, src, f.w.Prog, f.prof, archs,
				func(*trace.Batch) error { extra++; return nil })
			if err == nil || !strings.Contains(err.Error(), "does not hit a compiled control-transfer site") {
				t.Fatalf("SimulateStream error = %v, want the source's packing error", err)
			}
			if got := rec.Report().Counters["kernel.batches"]; extra != k || got != int64(k*len(archs)) {
				t.Errorf("extra consumer saw %d batches, the kernel's %d architectures %d in all; want %d per consumer",
					extra, len(archs), got, k)
			}
			if n := rec.Report().Counters["sim.stream.batches"]; n != int64(k) {
				t.Errorf("streamed %d batches, want %d", n, k)
			}
			checkBuffersDrained(t, rec)
			checkNoNewGoroutines(t, start)
		})
	}
}

// TestSimulateStreamCancel is the cancelling-source case of the
// mid-pipeline fault matrix: a source that serves k full batches, cancels
// the broadcast's context as batch k is requested and then serves the
// rest of the fixture. The broadcast checks the context before each fill,
// so batch k is the last: SimulateStream over every architecture plus one
// extra consumer must return the cancellation after every consumer saw
// exactly k+1 batches, drain the live gauges to zero, and leave the
// goroutine count where it was.
func TestSimulateStreamCancel(t *testing.T) {
	f := newStreamFixture(t)
	archs := predict.AllArchs()
	for _, k := range faultBatches {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			start := runtime.NumGoroutine()
			rec := obs.New("test")
			x, err := NewExecutor("", rec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := f.packed(t, 16, k, func() error { cancel(); return nil })
			extra := 0
			_, err = x.SimulateStream(ctx, NewStreamer(rec), f.lay, src, f.w.Prog, f.prof, archs,
				func(*trace.Batch) error { extra++; return nil })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("SimulateStream error = %v, want context.Canceled", err)
			}
			c := rec.Report().Counters
			if c["sim.stream.batches"] != int64(k+1) || extra != k+1 || c["kernel.batches"] != int64((k+1)*len(archs)) {
				t.Errorf("streamed %d batches, extra consumer saw %d, the kernel's architectures %d in all; want %d per consumer",
					c["sim.stream.batches"], extra, c["kernel.batches"], k+1)
			}
			checkBuffersDrained(t, rec)
			checkNoNewGoroutines(t, start)
		})
	}
}

// TestBroadcastStartsNoGoroutine: a broadcast runs every consumer on the
// caller's goroutine and starts none of its own, so inside each consumer,
// on every batch, the goroutine count is at most the one before the call.
func TestBroadcastStartsNoGoroutine(t *testing.T) {
	f := newStreamFixture(t)
	x, err := NewExecutor("", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	var seen [2][]int
	count := func(i int) func(*trace.Batch) error {
		return func(*trace.Batch) error { seen[i] = append(seen[i], runtime.NumGoroutine()); return nil }
	}
	if _, err := x.SimulateStream(nil, NewStreamer(nil), f.lay, f.source(t, 256), f.w.Prog, f.prof,
		predict.AllArchs(), count(0), count(1)); err != nil {
		t.Fatal(err)
	}
	for i, counts := range seen {
		if len(counts) == 0 {
			t.Errorf("consumer %d saw no batch", i)
		}
		for batch, n := range counts {
			if n > start {
				t.Errorf("consumer %d, batch %d: %d goroutines, %d before the broadcast", i, batch, n, start)
				break
			}
		}
	}
}

// TestStreamGaugesDrainOnError: a consumer failure mid-broadcast must still
// return the broadcast's buffer — the live buffer and byte gauges read zero
// afterwards, while the peak stays as the high-water record.
func TestStreamGaugesDrainOnError(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(rec)
	n := 0
	err := str.Broadcast(nil, f.source(t, 64), []func(*trace.Batch) error{
		func(*trace.Batch) error {
			if n++; n == 3 {
				return errors.New("consumer died")
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("Broadcast with failing consumer succeeded")
	}
	checkBuffersDrained(t, rec)
	if rec.Report().Gauges["sim.stream.peak_live_bytes"] == 0 {
		t.Error("peak gauge lost after error")
	}
}

// TestStreamArenaReuse: back-to-back broadcasts on one streamer must serve
// the second's one buffer from the arena — no fresh allocation — with the
// gauges drained between and after.
func TestStreamArenaReuse(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(rec)
	consume := []func(*trace.Batch) error{func(*trace.Batch) error { return nil }}
	if err := str.Broadcast(nil, f.source(t, 128), consume); err != nil {
		t.Fatal(err)
	}
	if n := rec.Report().Counters["sim.stream.arena_reuses"]; n != 0 {
		t.Errorf("first broadcast reused %d buffers from an empty arena", n)
	}
	checkBuffersDrained(t, rec)
	if err := str.Broadcast(nil, f.source(t, 128), consume); err != nil {
		t.Fatal(err)
	}
	if n := rec.Report().Counters["sim.stream.arena_reuses"]; n != 1 {
		t.Errorf("second broadcast reused %d buffers, want its one", n)
	}
	checkBuffersDrained(t, rec)
}

// checkBuffersDrained fails t unless rec's live gauges read zero: every
// broadcast returned the buffer it took.
func checkBuffersDrained(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	g := rec.Report().Gauges
	if g["sim.stream.live_buffers"] != 0 || g["sim.stream.live_bytes"] != 0 {
		t.Errorf("buffers not released: %d buffers, %d bytes live", g["sim.stream.live_buffers"], g["sim.stream.live_bytes"])
	}
}

// checkNoNewGoroutines fails t if the goroutine count exceeds start with no
// wait: a broadcast starts no goroutine, so none may outlive it. (The count
// may fall, as an earlier test's goroutines finish exiting.)
func checkNoNewGoroutines(t *testing.T, start int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines after the broadcast, %d before it", n, start)
	}
}

// TestBroadcastConcurrent runs several broadcasts in parallel over one
// shared Streamer — the engine's per-variant task shape — and checks the
// aggregate accounting balances: the broadcasts share one arena and its
// gauges. Run with -race this doubles as the broadcast stage's data-race
// probe.
func TestBroadcastConcurrent(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(rec)
	const grids = 4
	errc := make(chan error, grids)
	var events atomic.Uint64
	for g := 0; g < grids; g++ {
		src := f.source(t, 128)
		go func() {
			errc <- str.Broadcast(nil, src, []func(*trace.Batch) error{
				func(b *trace.Batch) error { events.Add(uint64(b.Len())); return nil },
				func(b *trace.Batch) error { return nil },
				func(b *trace.Batch) error { return nil },
			})
		}()
	}
	for g := 0; g < grids; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	c := rec.Report().Counters
	if c["sim.stream.broadcasts"] != grids {
		t.Errorf("sim.stream.broadcasts = %d, want %d", c["sim.stream.broadcasts"], grids)
	}
	if want := uint64(grids) * uint64(len(f.events)); uint64(c["sim.stream.events"]) != want || events.Load() != want {
		t.Errorf("events: streamer %d, consumer %d, want %d", c["sim.stream.events"], events.Load(), want)
	}
	checkBuffersDrained(t, rec)
}

// TestBroadcastContextCancel: a consumer that cancels the broadcast's
// context at batch k stops the stream there. The consumers after it still
// see batch k, since the context is checked before each fill, and nothing
// is filled after it; the broadcast returns the cancellation with its
// buffer released.
func TestBroadcastContextCancel(t *testing.T) {
	f := newStreamFixture(t)
	for _, k := range faultBatches {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			rec := obs.New("test")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen [2]int
			err := NewStreamer(rec).Broadcast(ctx, f.source(t, 32), []func(*trace.Batch) error{
				func(*trace.Batch) error {
					if seen[0]++; seen[0] == k+1 {
						cancel()
					}
					return nil
				},
				func(*trace.Batch) error { seen[1]++; return nil },
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Broadcast error = %v, want context.Canceled", err)
			}
			if n := rec.Report().Counters["sim.stream.batches"]; seen != [2]int{k + 1, k + 1} || n != int64(k+1) {
				t.Errorf("consumers saw %v of %d streamed batches; want %d each", seen, n, k+1)
			}
			checkBuffersDrained(t, rec)
		})
	}
}

// TestBroadcastPreCancelledContext: a broadcast handed an already-cancelled
// context must do no consumer work and release its buffer.
func TestBroadcastPreCancelledContext(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(rec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := f.source(t, 64)
	defer src.Close()
	var consumed atomic.Int64
	err := str.Broadcast(ctx, src, []func(*trace.Batch) error{
		func(*trace.Batch) error { consumed.Add(1); return nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Broadcast error = %v, want context.Canceled", err)
	}
	if consumed.Load() != 0 {
		t.Errorf("consumer ran %d batches under a pre-cancelled context", consumed.Load())
	}
	checkBuffersDrained(t, rec)
}
