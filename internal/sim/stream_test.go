package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
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
func (f *streamFixture) source(batchCap int) trace.Source {
	return trace.NewFuncSource(f.lay, batchCap, func(sink trace.Sink) (uint64, error) {
		for _, e := range f.events {
			sink.Event(e)
		}
		return f.instrs, nil
	})
}

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
			got, err := x.SimulateStream(nil, str, f.lay, f.source(512), f.w.Prog, f.prof, archs)
			if err != nil {
				t.Fatalf("SimulateStream: %v", err)
			}
			for i, arch := range archs {
				if got[i] != want[i] {
					t.Errorf("%s: streamed and reference results differ:\n stream    %+v\n reference %+v",
						arch, got[i], want[i])
				}
			}

			st := str.Stats()
			if st.Broadcasts != 1 {
				t.Errorf("Broadcasts = %d, want 1", st.Broadcasts)
			}
			if st.Events != uint64(len(f.events)) {
				t.Errorf("stream Events = %d, want %d", st.Events, len(f.events))
			}
			if wantBatches := (uint64(len(f.events)) + 511) / 512; st.Batches != wantBatches {
				t.Errorf("Batches = %d, want %d", st.Batches, wantBatches)
			}
			if st.PeakLiveBytes == 0 {
				t.Error("PeakLiveBytes = 0, want ring footprint recorded")
			}
			if st.LiveBuffers != 0 || st.LiveBytes != 0 {
				t.Errorf("ring not released: %d buffers, %d bytes live", st.LiveBuffers, st.LiveBytes)
			}
			if xs := x.Stats(); xs.StreamCells != uint64(len(archs)) {
				t.Errorf("StreamCells = %d, want %d", xs.StreamCells, len(archs))
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
	str := NewStreamer(4, 1024, nil)
	if _, err := x.SimulateStream(nil, str, f.lay, f.source(1024), f.w.Prog, f.prof, predict.AllArchs()); err != nil {
		t.Fatal(err)
	}
	peak, whole := str.Stats().PeakLiveBytes, uint64(len(f.events))*uint64(unsafe.Sizeof(trace.Event{}))
	if peak*5 > whole {
		t.Errorf("streaming peak %d bytes is not >=5x below the recorded trace's %d bytes", peak, whole)
	}
}

// TestBroadcastConsumerError: a failing consumer must abort the broadcast
// without deadlock and surface its error.
func TestBroadcastConsumerError(t *testing.T) {
	f := newStreamFixture(t)
	str := NewStreamer(2, 64, nil)
	var healthyBatches atomic.Int64
	err := str.Broadcast(nil, f.source(64), []func(*trace.Batch) error{
		func(*trace.Batch) error { healthyBatches.Add(1); return nil },
		func(*trace.Batch) error { return fmt.Errorf("consumer blew up") },
	})
	if err == nil || !strings.Contains(err.Error(), "consumer blew up") {
		t.Fatalf("Broadcast error = %v, want consumer failure", err)
	}
	if st := str.Stats(); st.LiveBuffers != 0 {
		t.Errorf("ring not released after failure: %d buffers live", st.LiveBuffers)
	}
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
// zero, and no goroutine (the generator's, the consumers') may outlive
// the call.
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
			src := trace.NewFuncSource(f.lay, batchCap, func(sink trace.Sink) (uint64, error) {
				for _, e := range f.events[:k*batchCap] {
					sink.Event(e)
				}
				// A PC with no layout slot makes the packing sink fail the fill.
				sink.Event(trace.Event{PC: 0xbad0_0000, Kind: ir.CondBr})
				return 0, nil
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
			if st := str.Stats(); st.Batches != uint64(k) || st.LiveBuffers != 0 || st.LiveBytes != 0 {
				t.Errorf("streamed %d batches with %d buffers, %d bytes live; want %d batches, ring drained",
					st.Batches, st.LiveBuffers, st.LiveBytes, k)
			}
			checkGoroutinesSettle(t, start)
		})
	}
}

// TestSimulateStreamCancel is the cancelling-source case of the
// mid-pipeline fault matrix: a source that packs k full batches, cancels
// the broadcast's context and then emits the rest of the fixture (so its
// generator still ends), for k before, inside and past one turn of the
// ring. SimulateStream over every architecture plus one extra consumer
// must return the cancellation, stream at most the one batch already
// requested when the cancel landed, drain the ring gauges to zero, and
// leave no goroutine (the generator's, the consumers') behind.
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
			str := NewStreamer(ring, batchCap, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := trace.NewFuncSource(f.lay, batchCap, func(sink trace.Sink) (uint64, error) {
				for i, e := range f.events {
					if i == k*batchCap {
						cancel()
					}
					sink.Event(e)
				}
				return f.instrs, nil
			})
			_, err = x.SimulateStream(ctx, str, f.lay, src, f.w.Prog, f.prof, archs,
				func(*trace.Batch) error { return nil })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("SimulateStream error = %v, want context.Canceled", err)
			}
			if st := str.Stats(); st.Batches > uint64(k+1) || st.LiveBuffers != 0 || st.LiveBytes != 0 {
				t.Errorf("streamed %d batches with %d buffers, %d bytes live; want at most %d batches, ring drained",
					st.Batches, st.LiveBuffers, st.LiveBytes, k+1)
			}
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
	err := str.Broadcast(nil, f.source(4096), []func(*trace.Batch) error{
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
	if str.Stats().StallsNs == 0 {
		t.Error("producer never stalled against the slow consumer")
	}
	if rec.Report().Counters["sim.stream.stalls_ns"] == 0 {
		t.Error("sim.stream.stalls_ns counter did not increment")
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
	err := str.Broadcast(nil, f.source(64), []func(*trace.Batch) error{
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
	st := str.Stats()
	if st.LiveBuffers != 0 || st.LiveBytes != 0 {
		t.Errorf("gauges not drained after error: %d buffers, %d bytes live", st.LiveBuffers, st.LiveBytes)
	}
	if st.PeakLiveBytes == 0 {
		t.Error("peak gauge lost after error")
	}
	g := rec.Report().Gauges
	if g["sim.stream.live_bytes"] != 0 || g["sim.stream.live_buffers"] != 0 {
		t.Errorf("obs gauges not drained: live_bytes=%d live_buffers=%d",
			g["sim.stream.live_bytes"], g["sim.stream.live_buffers"])
	}
}

// TestStreamArenaReuse: back-to-back broadcasts on one streamer must serve
// the second from the arena — no fresh ring allocation — with the gauges
// drained between and after.
func TestStreamArenaReuse(t *testing.T) {
	f := newStreamFixture(t)
	str := NewStreamer(3, 128, nil)
	consume := []func(*trace.Batch) error{func(*trace.Batch) error { return nil }}
	if err := str.Broadcast(nil, f.source(128), consume); err != nil {
		t.Fatal(err)
	}
	first := str.Stats()
	if first.ArenaReuses != 0 {
		t.Errorf("first broadcast reused %d buffers from an empty arena", first.ArenaReuses)
	}
	if first.LiveBuffers != 0 || first.LiveBytes != 0 {
		t.Errorf("gauges not drained between broadcasts: %+v", first)
	}
	if err := str.Broadcast(nil, f.source(128), consume); err != nil {
		t.Fatal(err)
	}
	second := str.Stats()
	if second.ArenaReuses != 3 {
		t.Errorf("second broadcast reused %d ring buffers, want all 3", second.ArenaReuses)
	}
	if second.LiveBuffers != 0 || second.LiveBytes != 0 {
		t.Errorf("gauges not drained after reuse: %+v", second)
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
	str := NewStreamer(ring, 32, nil)
	src := &fillCounter{Source: f.source(32)}
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
	st := str.Stats()
	if st.Batches == 0 {
		t.Fatal("no batches broadcast")
	}
	if st.StallsNs == 0 {
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
	str := NewStreamer(3, 128, obs.New("test"))
	const grids = 4
	errc := make(chan error, grids)
	var events atomic.Uint64
	for g := 0; g < grids; g++ {
		go func() {
			errc <- str.Broadcast(nil, f.source(128), []func(*trace.Batch) error{
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
	st := str.Stats()
	if st.Broadcasts != grids {
		t.Errorf("Broadcasts = %d, want %d", st.Broadcasts, grids)
	}
	if want := uint64(grids) * uint64(len(f.events)); st.Events != want || events.Load() != want {
		t.Errorf("events: streamer %d, consumer %d, want %d", st.Events, events.Load(), want)
	}
	if st.LiveBuffers != 0 || st.LiveBytes != 0 {
		t.Errorf("ring not fully released: %d buffers, %d bytes", st.LiveBuffers, st.LiveBytes)
	}
}

// TestBroadcastContextCancel is the regression test for prompt context
// cancellation: a broadcast whose producer is stalled against a slow
// consumer must observe the cancel while blocked on the buffer ring, return
// well before the consumer would have drained the stream, and still release
// every ring buffer (the live-bytes gauge returns to zero).
func TestBroadcastContextCancel(t *testing.T) {
	f := newStreamFixture(t)
	str := NewStreamer(2, 32, nil)
	ctx, cancel := context.WithCancel(context.Background())

	// At 32 events per batch the fixture stream is hundreds of batches; a
	// consumer sleeping 10ms per batch would take seconds to drain it, so a
	// prompt return is attributable only to the cancellation.
	var consumed atomic.Int64
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- str.Broadcast(ctx, f.source(32), []func(*trace.Batch) error{
			func(*trace.Batch) error {
				consumed.Add(1)
				time.Sleep(10 * time.Millisecond)
				return nil
			},
		})
	}()
	time.Sleep(30 * time.Millisecond)
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
		t.Fatalf("Broadcast took %v, want prompt abort", elapsed)
	}
	if consumed.Load() == 0 {
		t.Error("consumer saw no batches before the cancel (test raced the stream start)")
	}
	st := str.Stats()
	if st.LiveBuffers != 0 || st.LiveBytes != 0 {
		t.Errorf("ring not released after cancel: %d buffers, %d bytes live", st.LiveBuffers, st.LiveBytes)
	}
}

// TestBroadcastPreCancelledContext: a broadcast handed an already-cancelled
// context must do no consumer work and release the ring.
func TestBroadcastPreCancelledContext(t *testing.T) {
	f := newStreamFixture(t)
	str := NewStreamer(0, 64, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := f.source(64)
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
	if st := str.Stats(); st.LiveBuffers != 0 || st.LiveBytes != 0 {
		t.Errorf("ring not released: %d buffers, %d bytes live", st.LiveBuffers, st.LiveBytes)
	}
}
