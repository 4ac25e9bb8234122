package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"balign/internal/ir"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/profile"
	"balign/internal/trace"
	"balign/internal/workload"
)

// TestParseKernelModeEnumeratesModes pins the error-message contract: the
// message must list every accepted value.
func TestParseKernelModeEnumeratesModes(t *testing.T) {
	_, err := ParseKernelMode("bogus")
	if err == nil {
		t.Fatal("ParseKernelMode(bogus) succeeded")
	}
	for _, m := range KernelModes() {
		if !strings.Contains(err.Error(), string(m)) {
			t.Errorf("error %q does not mention mode %q", err, m)
		}
	}
}

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
			str := NewStreamer(0, 512, rec)
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
				t.Error("sim.stream.peak_live_bytes = 0, want ring footprint recorded")
			}
			checkRingDrained(t, rec)
			if n := c["sim.exec.stream_cells"]; n != int64(len(archs)) {
				t.Errorf("sim.exec.stream_cells = %d, want %d", n, len(archs))
			}
		})
	}
}

// TestSimulateStreamBoundedMemory pins the headline memory property: the
// ring's peak footprint must be far below the whole trace's as 48-byte
// events.
func TestSimulateStreamBoundedMemory(t *testing.T) {
	f := newStreamFixture(t)
	x, err := NewExecutor("", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New("test")
	str := NewStreamer(4, 1024, rec)
	if _, err := x.SimulateStream(nil, str, f.lay, f.source(t, 1024), f.w.Prog, f.prof, predict.AllArchs()); err != nil {
		t.Fatal(err)
	}
	peak := rec.Report().Gauges["sim.stream.peak_live_bytes"]
	whole := int64(len(f.events)) * int64(unsafe.Sizeof(trace.Event{}))
	if peak*5 > whole {
		t.Errorf("streaming peak %d bytes is not >=5x below the recorded trace's %d bytes", peak, whole)
	}
}

// TestBroadcastConsumerError: a failing consumer must abort the broadcast
// without deadlock and surface its error.
func TestBroadcastConsumerError(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(2, 64, rec)
	var healthyBatches atomic.Int64
	err := str.Broadcast(nil, f.source(t, 64), []func(*trace.Batch) error{
		func(*trace.Batch) error { healthyBatches.Add(1); return nil },
		func(*trace.Batch) error { return fmt.Errorf("consumer blew up") },
	})
	if err == nil || !strings.Contains(err.Error(), "consumer blew up") {
		t.Fatalf("Broadcast error = %v, want consumer failure", err)
	}
	checkRingDrained(t, rec)
	if healthyBatches.Load() == 0 {
		t.Error("healthy consumer saw no batches before the abort")
	}
}

// TestBroadcastSourceError is the failing-source case of the
// mid-pipeline fault matrix: a source that packs k full batches and then
// an event at a PC with no layout slot, for k before, inside and past one
// turn of the ring. SimulateStream over every architecture plus one extra
// consumer must return the source's packing error, every consumer must
// have seen exactly the k good batches, the ring gauges must drain to
// zero, and no goroutine (the consumers') may outlive the call.
func TestBroadcastSourceError(t *testing.T) {
	f := newStreamFixture(t)
	const ring, batchCap = DefaultStreamBuffers, 16
	archs := predict.AllArchs()
	for _, k := range []int{0, 1, ring - 1, ring + 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			start := runtime.NumGoroutine()
			rec := obs.New("test")
			x, err := NewExecutor("", rec)
			if err != nil {
				t.Fatal(err)
			}
			str := NewStreamer(ring, batchCap, rec)
			src := f.packed(t, batchCap, k, func() error {
				// A PC with no layout slot fails the fill's packing.
				var b trace.Batch
				return f.lay.Append(&b, trace.Event{PC: 0xbad0_0000, Kind: ir.CondBr})
			})
			var extra atomic.Int64
			_, err = x.SimulateStream(nil, str, f.lay, src, f.w.Prog, f.prof, archs,
				func(*trace.Batch) error { extra.Add(1); return nil })
			if err == nil || !strings.Contains(err.Error(), "does not hit a compiled control-transfer site") {
				t.Fatalf("SimulateStream error = %v, want the source's packing error", err)
			}
			if got := rec.Report().Counters["kernel.batches"]; extra.Load() != int64(k) || got != int64(k*len(archs)) {
				t.Errorf("extra consumer saw %d batches, the kernel's %d architectures %d in all; want %d per consumer",
					extra.Load(), len(archs), got, k)
			}
			if n := rec.Report().Counters["sim.stream.batches"]; n != int64(k) {
				t.Errorf("streamed %d batches, want %d", n, k)
			}
			checkRingDrained(t, rec)
			checkGoroutinesSettle(t, start)
		})
	}
}

// TestSimulateStreamCancel is the cancelling-source case of the
// mid-pipeline fault matrix: a source that serves k full batches, cancels
// the broadcast's context as batch k is requested and then serves the
// rest of the fixture, for k before, inside and past one turn of the
// ring. SimulateStream over every architecture plus one extra consumer
// must return the cancellation, stream at most the one batch already
// requested when the cancel landed, drain the ring gauges to zero, and
// leave no goroutine (the consumers') behind.
func TestSimulateStreamCancel(t *testing.T) {
	f := newStreamFixture(t)
	const ring, batchCap = DefaultStreamBuffers, 16
	archs := predict.AllArchs()
	for _, k := range []int{0, 1, ring - 1, ring + 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			start := runtime.NumGoroutine()
			x, err := NewExecutor("", nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New("test")
			str := NewStreamer(ring, batchCap, rec)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := f.packed(t, batchCap, k, func() error { cancel(); return nil })
			_, err = x.SimulateStream(ctx, str, f.lay, src, f.w.Prog, f.prof, archs,
				func(*trace.Batch) error { return nil })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("SimulateStream error = %v, want context.Canceled", err)
			}
			if n := rec.Report().Counters["sim.stream.batches"]; n > int64(k+1) {
				t.Errorf("streamed %d batches, want at most %d", n, k+1)
			}
			checkRingDrained(t, rec)
			checkGoroutinesSettle(t, start)
		})
	}
}

// TestShardSlowConsumerStallIsolation: a slow consumer must not run the
// other consumers in lockstep — each drains its own queue independently, so
// the fast consumer gets ahead by up to the ring depth while the producer's
// stall (the backpressure telemetry) charges the slow one.
func TestShardSlowConsumerStallIsolation(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	const ring = 4
	str := NewStreamer(ring, 4096, rec)
	var fast, slow atomic.Int64
	var maxLead atomic.Int64
	err := str.Broadcast(nil, f.source(t, 4096), []func(*trace.Batch) error{
		func(*trace.Batch) error {
			lead := fast.Add(1) - slow.Load()
			for {
				m := maxLead.Load()
				if lead <= m || maxLead.CompareAndSwap(m, lead) {
					break
				}
			}
			return nil
		},
		func(*trace.Batch) error {
			// Hold the first batch until the fast consumer has drained the
			// whole ring, so the producer must block on the free ring
			// however slowly it generates (the race detector slows it
			// below this consumer's pace). The wait is bounded, so
			// lockstep consumers fail the lead check below instead of
			// hanging.
			if slow.Load() == 0 {
				for deadline := time.Now().Add(5 * time.Second); fast.Load() < ring && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
			}
			time.Sleep(100 * time.Microsecond)
			slow.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Load() == 0 || slow.Load() != fast.Load() {
		t.Fatalf("consumers saw %d/%d batches", fast.Load(), slow.Load())
	}
	if maxLead.Load() < 2 {
		t.Errorf("fast consumer's max lead over the slow one = %d batches; want >= 2 (independent progress up to the ring)",
			maxLead.Load())
	}
	if rec.Report().Counters["sim.stream.stalls_ns"] == 0 {
		t.Error("producer never stalled against the slow consumer: sim.stream.stalls_ns did not increment")
	}
}

// TestStreamGaugesDrainOnError: a consumer failure mid-broadcast must still
// return every ring buffer — live buffer/byte gauges (and their obs
// mirrors) read zero afterwards, while the peak stays as the high-water
// record.
func TestStreamGaugesDrainOnError(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(2, 64, rec)
	var n atomic.Int64
	err := str.Broadcast(nil, f.source(t, 64), []func(*trace.Batch) error{
		func(*trace.Batch) error {
			if n.Add(1) == 3 {
				return errors.New("consumer died")
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("Broadcast with failing consumer succeeded")
	}
	checkRingDrained(t, rec)
	if rec.Report().Gauges["sim.stream.peak_live_bytes"] == 0 {
		t.Error("peak gauge lost after error")
	}
}

// TestStreamArenaReuse: back-to-back broadcasts on one streamer must serve
// the second from the arena — no fresh ring allocation — with the gauges
// drained between and after.
func TestStreamArenaReuse(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(3, 128, rec)
	consume := []func(*trace.Batch) error{func(*trace.Batch) error { return nil }}
	if err := str.Broadcast(nil, f.source(t, 128), consume); err != nil {
		t.Fatal(err)
	}
	if n := rec.Report().Counters["sim.stream.arena_reuses"]; n != 0 {
		t.Errorf("first broadcast reused %d buffers from an empty arena", n)
	}
	checkRingDrained(t, rec)
	if err := str.Broadcast(nil, f.source(t, 128), consume); err != nil {
		t.Fatal(err)
	}
	if n := rec.Report().Counters["sim.stream.arena_reuses"]; n != 3 {
		t.Errorf("second broadcast reused %d ring buffers, want all 3", n)
	}
	checkRingDrained(t, rec)
}

// checkRingDrained fails t unless rec's live ring gauges read zero: every
// broadcast returned every ring buffer it took.
func checkRingDrained(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	g := rec.Report().Gauges
	if g["sim.stream.live_buffers"] != 0 || g["sim.stream.live_bytes"] != 0 {
		t.Errorf("ring not released: %d buffers, %d bytes live", g["sim.stream.live_buffers"], g["sim.stream.live_bytes"])
	}
}

// checkGoroutinesSettle fails t unless the goroutine count falls back to
// start within a bounded wait: a goroutine a broadcast left behind never
// exits.
func checkGoroutinesSettle(t *testing.T, start int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines outlive the broadcast (%d before it)", n, start)
	}
}

// TestBroadcastBackpressure: a consumer slower than the producer must stall
// the producer (bounded ring), and the stall must be measured. The consumer
// holds its first batch until the producer has filled the whole ring, and
// then for 100 µs more while the producer reaches the empty ring, so the
// stall comes from the test's structure, not from which side runs faster
// (under the race detector too). The wait is bounded, so a producer that
// never fills the ring fails the stall check instead of hanging.
func TestBroadcastBackpressure(t *testing.T) {
	f := newStreamFixture(t)
	const ring = 2
	rec := obs.New("test")
	str := NewStreamer(ring, 32, rec)
	src := &fillCounter{Source: f.source(t, 32)}
	defer src.Close()
	held := false
	err := str.Broadcast(nil, src, []func(*trace.Batch) error{
		func(*trace.Batch) error {
			if !held {
				held = true
				for deadline := time.Now().Add(5 * time.Second); src.fills.Load() < ring && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
				time.Sleep(100 * time.Microsecond)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Report().Counters
	if c["sim.stream.batches"] == 0 {
		t.Fatal("no batches broadcast")
	}
	if c["sim.stream.stalls_ns"] == 0 {
		t.Error("producer never stalled against a deliberately slow consumer")
	}
}

// fillCounter counts the batches its source has filled.
type fillCounter struct {
	trace.Source
	fills atomic.Int64
}

func (s *fillCounter) Fill(b *trace.Batch) (bool, error) {
	ok, err := s.Source.Fill(b)
	if ok {
		s.fills.Add(1)
	}
	return ok, err
}

// TestBroadcastConcurrent runs several broadcasts in parallel over one
// shared Streamer — the engine's per-variant task shape — and checks the
// aggregate accounting balances. Run with -race this doubles as the
// broadcast stage's data-race probe.
func TestBroadcastConcurrent(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(3, 128, rec)
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
	checkRingDrained(t, rec)
}

// TestBroadcastContextCancel is the regression test for prompt context
// cancellation: a broadcast whose producer is stalled against a slow
// consumer must observe the cancel while blocked on the buffer ring, return
// well before the consumer would have drained the stream, and still release
// every ring buffer (the live-bytes gauge returns to zero).
func TestBroadcastContextCancel(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(2, 32, rec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// At 32 events per batch the fixture stream is hundreds of batches; a
	// consumer sleeping 10ms per batch would take seconds to drain it, so a
	// prompt return is attributable only to the cancellation. The cancel
	// waits for the consumer's first batch, however late it arrives.
	var consumed atomic.Int64
	first := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	src := f.source(t, 32)
	go func() {
		done <- str.Broadcast(ctx, src, []func(*trace.Batch) error{
			func(*trace.Batch) error {
				consumed.Add(1)
				once.Do(func() { close(first) })
				time.Sleep(10 * time.Millisecond)
				return nil
			},
		})
	}()
	select {
	case <-first:
	case <-time.After(30 * time.Second):
		t.Fatal("consumer saw no batch within 30s")
	}
	start := time.Now()
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Broadcast error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Broadcast did not return within 2s of cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Broadcast took %v after the cancel, want prompt abort", elapsed)
	}
	if consumed.Load() == 0 {
		t.Error("consumer saw no batches before the cancel")
	}
	checkRingDrained(t, rec)
}

// TestBroadcastPreCancelledContext: a broadcast handed an already-cancelled
// context must do no consumer work and release the ring.
func TestBroadcastPreCancelledContext(t *testing.T) {
	f := newStreamFixture(t)
	rec := obs.New("test")
	str := NewStreamer(0, 64, rec)
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
	checkRingDrained(t, rec)
}
