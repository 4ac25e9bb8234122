package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"balign/internal/obs"
	"balign/internal/trace"
)

// DefaultStreamBuffers is the default broadcast ring size. Four in-flight
// batches keep the producer ahead of the slowest consumer without letting
// the ring's footprint grow past a fraction of a megabyte per variant.
const DefaultStreamBuffers = 4

// Streamer is the broadcast stage of the streaming pipeline: it pulls
// batches from one trace.Source at a time per Broadcast call and fans each
// batch out to all consumers over a bounded ring of reusable buffers, so a
// variant is simulated by N architectures in one generation pass with peak
// memory bounded by the ring, not the trace.
//
// One Streamer is shared across an experiment grid (Broadcast is safe for
// concurrent use); its counts go to the recorder as the sim.stream.*
// counters (broadcasts, batches, events, stalls_ns, gen_ns, arena_reuses)
// and gauges (live_buffers, live_bytes, peak_live_bytes), which aggregate
// every broadcast.
type Streamer struct {
	obs      *obs.Recorder
	buffers  int
	batchCap int

	// mu guards the arena and the live gauges. The arena holds idle ring
	// buffers between broadcasts so successive variants reuse one
	// another's batch memory. Idle buffers are not accounted in the live
	// gauges — those gauge what in-flight broadcasts have pinned, and must
	// drain to zero when no broadcast is running. Each gauge is set under
	// mu, so however broadcasts interleave, the recorder's last value is
	// the current one.
	mu          sync.Mutex
	arena       []*sharedBatch
	liveBuffers int64
	liveBytes   int64
	peakBytes   int64
}

// NewStreamer returns a streamer with the given ring size and per-batch
// event capacity (0 selects DefaultStreamBuffers / trace.DefaultBatchCap).
// rec receives the sim.stream.* counters and gauges; nil disables telemetry.
func NewStreamer(buffers, batchCap int, rec *obs.Recorder) *Streamer {
	if buffers <= 0 {
		buffers = DefaultStreamBuffers
	}
	if batchCap <= 0 {
		batchCap = trace.DefaultBatchCap
	}
	return &Streamer{obs: rec, buffers: buffers, batchCap: batchCap}
}

// BatchCap returns the per-batch event capacity sources should be built
// with.
func (s *Streamer) BatchCap() int { return s.batchCap }

// sharedBatch is one ring buffer: a batch plus the fan-out refcount and its
// last-accounted footprint.
type sharedBatch struct {
	b    trace.Batch
	refs atomic.Int32
	size uint64
}

// takeBuffer hands out a ring buffer — from the arena when one is idle,
// freshly allocated otherwise — and accounts it into the live gauges.
func (s *Streamer) takeBuffer() *sharedBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sb *sharedBatch
	if n := len(s.arena); n > 0 {
		sb = s.arena[n-1]
		s.arena[n-1] = nil
		s.arena = s.arena[:n-1]
		s.obs.Add("sim.stream.arena_reuses", 1)
	} else {
		sb = &sharedBatch{}
		sb.b.Ops = make([]int32, 0, s.batchCap)
		sb.size = sb.b.SizeBytes()
	}
	s.account(1, int64(sb.size))
	return sb
}

// returnBuffer drains a ring buffer out of the live gauges and parks it in
// the arena for the next broadcast. The batch's backing arrays are kept at
// their grown capacity — that is the reuse.
func (s *Streamer) returnBuffer(sb *sharedBatch) {
	s.mu.Lock()
	s.account(-1, -int64(sb.size))
	s.arena = append(s.arena, sb)
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

// Broadcast pulls src dry and delivers every batch to all consumers, in
// order, each batch shared read-only. A consumer returning an error stops
// receiving work (its remaining deliveries are drained and released) and
// aborts the producer at the next batch boundary. The first failure — the
// context's, else the source's, else the lowest-indexed consumer's — is
// returned.
//
// Cancelling ctx aborts the broadcast promptly: the producer observes the
// cancellation both between batches and while blocked on the buffer ring,
// and consumers stop doing work at their next batch boundary (batches are
// bounded by the batch capacity, so no consumer runs unbounded after the
// cancel). Either way every ring buffer is drained and released before
// Broadcast returns, so the live-bytes and live-buffer gauges return to
// their pre-call values. A nil ctx means context.Background().
//
// The caller keeps ownership of src (including Close); Broadcast never
// returns while any consumer is still running.
func (s *Streamer) Broadcast(ctx context.Context, src trace.Source, consumers []func(*trace.Batch) error) error {
	if len(consumers) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(consumers)
	free := make(chan *sharedBatch, s.buffers)
	for i := 0; i < s.buffers; i++ {
		free <- s.takeBuffer()
	}
	// Per-consumer queues sized to the ring: with only s.buffers buffers in
	// existence a queue can never fill, so the producer blocks only on the
	// free ring — that wait is the backpressure (stall) measurement.
	chans := make([]chan *sharedBatch, n)
	for i := range chans {
		chans[i] = make(chan *sharedBatch, s.buffers)
	}

	var failed atomic.Bool
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range consumers {
		i, consume := i, consumers[i]
		go func() {
			defer wg.Done()
			for sb := range chans[i] {
				// A cancelled context stops this consumer's work at the
				// batch boundary; already-queued batches are still drained
				// and released below so the ring empties out.
				if errs[i] == nil && ctx.Err() == nil {
					if err := consume(&sb.b); err != nil {
						errs[i] = err
						failed.Store(true)
					}
				}
				if sb.refs.Add(-1) == 0 {
					free <- sb
				}
			}
		}()
	}

	var (
		prodErr  error
		batches  uint64
		events   uint64
		stallsNs int64
		genNs    int64
	)
	for !failed.Load() {
		if err := ctx.Err(); err != nil {
			prodErr = err
			break
		}
		var sb *sharedBatch
		select {
		case sb = <-free:
		default:
			// Blocked on the ring: this wait is the backpressure (stall)
			// measurement, and also where a cancelled request must not hang
			// behind a slow consumer — hence the ctx arm.
			start := time.Now()
			select {
			case sb = <-free:
				stallsNs += int64(time.Since(start))
			case <-ctx.Done():
				stallsNs += int64(time.Since(start))
				prodErr = ctx.Err()
			}
		}
		if prodErr != nil {
			// Cancelled while waiting for a buffer; none was taken, so
			// nothing needs returning to the ring.
			break
		}
		gstart := time.Now()
		ok, err := src.Fill(&sb.b)
		genNs += int64(time.Since(gstart))
		if size := sb.b.SizeBytes(); size != sb.size {
			s.mu.Lock()
			s.account(0, int64(size)-int64(sb.size))
			s.mu.Unlock()
			sb.size = size
		}
		if err != nil {
			prodErr = err
		}
		if !ok || err != nil {
			free <- sb
			break
		}
		batches++
		events += uint64(sb.b.Len())
		sb.refs.Store(int32(n))
		for i := range chans {
			chans[i] <- sb
		}
	}
	for i := range chans {
		close(chans[i])
	}
	wg.Wait()
	for i := 0; i < s.buffers; i++ {
		s.returnBuffer(<-free)
	}

	s.obs.Add("sim.stream.broadcasts", 1)
	s.obs.Add("sim.stream.batches", int64(batches))
	s.obs.Add("sim.stream.events", int64(events))
	s.obs.Add("sim.stream.stalls_ns", stallsNs)
	s.obs.Add("sim.stream.gen_ns", genNs)

	if prodErr != nil {
		return prodErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
