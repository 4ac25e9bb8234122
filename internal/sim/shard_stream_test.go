package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/trace"
)

// TestSimulateStreamShardedMatchesUnsharded: the executor's intra-variant
// sharding must be invisible in the results — for every shard count the
// streamed results equal the unsharded run's, while the executor's stats
// prove sharding actually happened (forwarded batches, n*S stream cells).
func TestSimulateStreamShardedMatchesUnsharded(t *testing.T) {
	f := newStreamFixture(t)
	archs := predict.AllArchs()

	base, err := NewExecutor("", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.SimulateStream(nil, NewStreamer(0, 256, nil), f.lay, f.source(256), f.w.Prog, f.prof, archs)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 3, 5} {
		x, err := NewExecutor("", nil)
		if err != nil {
			t.Fatal(err)
		}
		x.SetShards(shards)
		got, err := x.SimulateStream(nil, NewStreamer(0, 256, nil), f.lay, f.source(256), f.w.Prog, f.prof, archs)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i, arch := range archs {
			if got[i] != want[i] {
				t.Errorf("shards=%d %s: sharded and unsharded results differ:\n sharded   %+v\n unsharded %+v",
					shards, arch, got[i], want[i])
			}
		}
		xs := x.Stats()
		if xs.Shards != shards {
			t.Errorf("Stats().Shards = %d, want %d", xs.Shards, shards)
		}
		if want := uint64(len(archs) * shards); xs.StreamCells != want {
			t.Errorf("shards=%d: StreamCells = %d, want %d", shards, xs.StreamCells, want)
		}
		if xs.ForwardEvents == 0 {
			t.Errorf("shards=%d: no events forwarded — sharding silently disabled", shards)
		}
		// Every shard runs its owned batches and forwards the rest, so per
		// consumer run+forward events equals the stream, and across shards
		// the run events equal the stream exactly once per architecture.
		if base.Stats().Events != xs.Events {
			t.Errorf("shards=%d: run events %d differ from unsharded %d", shards, xs.Events, base.Stats().Events)
		}
	}

	// Ref mode has no forwarding primitive: SetShards must be a no-op there.
	r, err := NewExecutor("ref", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetShards(4)
	got, err := r.SimulateStream(nil, NewStreamer(0, 256, nil), f.lay, f.source(256), f.w.Prog, f.prof, archs)
	if err != nil {
		t.Fatal(err)
	}
	for i, arch := range archs {
		if got[i] != want[i] {
			t.Errorf("ref sharded %s: results differ", arch)
		}
	}
	if xs := r.Stats(); xs.StreamCells != uint64(len(archs)) {
		t.Errorf("ref mode fanned out to %d stream cells, want %d (unsharded)", xs.StreamCells, len(archs))
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
				return errors.New("shard died")
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

// TestSimulateStreamShardedCancel: cancelling a sharded broadcast must
// abort promptly and drain the gauges to zero, exactly like the unsharded
// path.
func TestSimulateStreamShardedCancel(t *testing.T) {
	f := newStreamFixture(t)
	x, err := NewExecutor("", nil)
	if err != nil {
		t.Fatal(err)
	}
	x.SetShards(3)
	str := NewStreamer(2, 16, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err = x.SimulateStream(ctx, str, f.lay, f.source(16), f.w.Prog, f.prof, predict.AllArchs())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateStream error = %v, want context.Canceled", err)
	}
	if st := str.Stats(); st.LiveBuffers != 0 || st.LiveBytes != 0 {
		t.Errorf("gauges not drained after cancel: %d buffers, %d bytes live", st.LiveBuffers, st.LiveBytes)
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
