package sim

import (
	"context"
	"sync"
	"time"

	"balign/internal/obs"
	"balign/internal/trace"
)

// Streamer is the broadcast stage of the streaming pipeline: each
// Broadcast fills one buffer from a trace.Source and hands every batch to
// each consumer in turn, on the calling goroutine, so a variant is
// simulated by all of its consumers in one generation pass with peak
// memory bounded by one batch, not the trace.
//
// One Streamer is shared across an experiment grid (Broadcast is safe for
// concurrent use); its counts go to the recorder as the sim.stream.*
// counters (broadcasts, batches, events, gen_ns, arena_reuses) and gauges
// (live_buffers, live_bytes, peak_live_bytes), which aggregate every
// broadcast.
type Streamer struct {
	obs *obs.Recorder

	// mu guards the arena and the live gauges. The arena holds idle
	// buffers between broadcasts so successive variants reuse one
	// another's batch memory; it grows to one buffer per broadcast that
	// ran at once. Idle buffers are not accounted in the live gauges —
	// those gauge what running broadcasts have pinned, and must drain to
	// zero when no broadcast is running. Each gauge is set under mu, so
	// however broadcasts interleave, the recorder's last value is the
	// current one.
	mu          sync.Mutex
	arena       []*trace.Batch
	liveBuffers int64
	liveBytes   int64
	peakBytes   int64
}

// NewStreamer returns a streamer. rec receives the sim.stream.* counters
// and gauges; nil disables telemetry.
func NewStreamer(rec *obs.Recorder) *Streamer { return &Streamer{obs: rec} }

// takeBuffer hands out a buffer — from the arena when one is idle, a fresh
// empty one otherwise (Fill appends, so it grows to what its source
// fills) — and accounts it into the live gauges.
func (s *Streamer) takeBuffer() *trace.Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b *trace.Batch
	if n := len(s.arena); n > 0 {
		b = s.arena[n-1]
		s.arena[n-1] = nil
		s.arena = s.arena[:n-1]
		s.obs.Add("sim.stream.arena_reuses", 1)
	} else {
		b = new(trace.Batch)
	}
	s.account(1, int64(b.SizeBytes()))
	return b
}

// returnBuffer drains a buffer out of the live gauges and parks it in the
// arena for the next broadcast. The batch's backing arrays are kept at
// their grown capacity — that is the reuse.
func (s *Streamer) returnBuffer(b *trace.Batch) {
	s.mu.Lock()
	s.account(-1, -int64(b.SizeBytes()))
	s.arena = append(s.arena, b)
	s.mu.Unlock()
}

// account moves the live gauges, keeps the bytes' high-water mark and sets
// all three gauges. The caller holds s.mu.
func (s *Streamer) account(buffers, bytes int64) {
	s.liveBuffers += buffers
	s.liveBytes += bytes
	s.peakBytes = max(s.peakBytes, s.liveBytes)
	s.obs.Set("sim.stream.live_buffers", s.liveBuffers)
	s.obs.Set("sim.stream.live_bytes", s.liveBytes)
	s.obs.Set("sim.stream.peak_live_bytes", s.peakBytes)
}

// Broadcast pulls src dry and hands every batch to each consumer in index
// order, on the calling goroutine; a consumer must not keep the batch past
// its call. It stops at the first failure in stream order and returns it:
// the context's, checked before each batch is filled, else the source's,
// else that of the first consumer to fail on the batch (the consumers
// after it do not see that batch). A nil ctx means context.Background().
//
// Broadcast starts no goroutine, so when it returns no consumer is
// running. Its one buffer is back in the arena whichever way it returns,
// so the live-bytes and live-buffer gauges return to their pre-call
// values. The caller keeps ownership of src (including Close).
func (s *Streamer) Broadcast(ctx context.Context, src trace.Source, consumers []func(*trace.Batch) error) error {
	if len(consumers) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	b := s.takeBuffer()
	defer s.returnBuffer(b)
	size := b.SizeBytes()

	var (
		err     error
		batches uint64
		events  uint64
		genNs   int64
	)
stream:
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		start := time.Now()
		var ok bool
		ok, err = src.Fill(b)
		genNs += int64(time.Since(start))
		if grown := b.SizeBytes(); grown != size {
			s.mu.Lock()
			s.account(0, int64(grown)-int64(size))
			s.mu.Unlock()
			size = grown
		}
		if !ok || err != nil {
			break
		}
		batches++
		events += uint64(b.Len())
		for _, consume := range consumers {
			if err = consume(b); err != nil {
				break stream
			}
		}
	}

	s.obs.Add("sim.stream.broadcasts", 1)
	s.obs.Add("sim.stream.batches", int64(batches))
	s.obs.Add("sim.stream.events", int64(events))
	s.obs.Add("sim.stream.gen_ns", genNs)
	return err
}
