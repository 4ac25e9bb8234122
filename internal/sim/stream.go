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

// StreamStats counts broadcast traffic and buffer-ring occupancy. The JSON
// form is the run report's "stream" section.
type StreamStats struct {
	// Broadcasts is the number of variant streams fanned out.
	Broadcasts uint64 `json:"broadcasts"`
	// Batches and Events count what the producers generated (each batch is
	// delivered to every consumer but counted once here).
	Batches uint64 `json:"batches"`
	Events  uint64 `json:"events"`
	// StallsNs is the time producers spent blocked waiting for a free
	// buffer — the backpressure signal: consumers were the bottleneck.
	StallsNs int64 `json:"stalls_ns"`
	// GenNs is the time producers spent inside Source.Fill — the
	// generation half of the pipeline, measured at the same boundary the
	// consumer half reports as sim.exec.run_ns, so overlap is visible as
	// gen_ns + run_ns exceeding wall time.
	GenNs int64 `json:"gen_ns"`
	// LiveBuffers and LiveBytes gauge the ring buffers currently pinned
	// across in-flight broadcasts; PeakLiveBytes is the high-water mark —
	// the streaming replacement for the trace cache's live-bytes gauge.
	LiveBuffers   int64  `json:"live_buffers"`
	LiveBytes     uint64 `json:"live_bytes"`
	PeakLiveBytes uint64 `json:"peak_live_bytes"`
	// ArenaReuses counts ring buffers served from the streamer's arena
	// instead of freshly allocated: broadcasts after the first reuse the
	// previous variants' buffers, so steady-state streaming allocates no
	// batch memory at all.
	ArenaReuses uint64 `json:"arena_reuses"`
}

// Streamer is the broadcast stage of the streaming pipeline: it pulls
// batches from one trace.Source at a time per Broadcast call and fans each
// batch out to all consumers over a bounded ring of reusable buffers, so a
// variant is simulated by N architectures in one generation pass with peak
// memory bounded by the ring, not the trace.
//
// One Streamer is shared across an experiment grid (Broadcast is safe for
// concurrent use); its counters aggregate every broadcast and surface as
// the sim.stream.* telemetry and the report's "stream" section.
type Streamer struct {
	obs      *obs.Recorder
	buffers  int
	batchCap int

	broadcasts    atomic.Uint64
	batches       atomic.Uint64
	events        atomic.Uint64
	stallsNs      atomic.Int64
	genNs         atomic.Int64
	liveBuffers   atomic.Int64
	liveBytes     atomic.Int64
	peakLiveBytes atomic.Int64
	arenaReuses   atomic.Uint64

	// arena holds idle ring buffers between broadcasts so successive
	// variants reuse one another's batch memory. Idle buffers are not
	// accounted in the live gauges — those gauge what in-flight broadcasts
	// have pinned, and must drain to zero when no broadcast is running.
	mu    sync.Mutex
	arena []*sharedBatch
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
	var sb *sharedBatch
	if n := len(s.arena); n > 0 {
		sb = s.arena[n-1]
		s.arena[n-1] = nil
		s.arena = s.arena[:n-1]
	}
	s.mu.Unlock()
	if sb == nil {
		sb = &sharedBatch{}
		sb.b.Ops = make([]int32, 0, s.batchCap)
		sb.size = sb.b.SizeBytes()
	} else {
		s.arenaReuses.Add(1)
		s.obs.Add("sim.stream.arena_reuses", 1)
	}
	s.accountBytes(int64(sb.size))
	s.accountBuffers(1)
	return sb
}

// returnBuffer drains a ring buffer out of the live gauges and parks it in
// the arena for the next broadcast. The batch's backing arrays are kept at
// their grown capacity — that is the reuse.
func (s *Streamer) returnBuffer(sb *sharedBatch) {
	s.accountBytes(-int64(sb.size))
	s.accountBuffers(-1)
	s.mu.Lock()
	s.arena = append(s.arena, sb)
	s.mu.Unlock()
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
			s.accountBytes(int64(size) - int64(sb.size))
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

	s.broadcasts.Add(1)
	s.batches.Add(batches)
	s.events.Add(events)
	s.stallsNs.Add(stallsNs)
	s.genNs.Add(genNs)
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

// accountBytes moves the pinned-bytes gauge and maintains its high-water
// mark.
func (s *Streamer) accountBytes(delta int64) {
	if delta == 0 {
		return
	}
	live := s.liveBytes.Add(delta)
	for {
		peak := s.peakLiveBytes.Load()
		if live <= peak || s.peakLiveBytes.CompareAndSwap(peak, live) {
			break
		}
	}
	s.obs.Set("sim.stream.live_bytes", live)
	s.obs.Set("sim.stream.peak_live_bytes", s.peakLiveBytes.Load())
}

// accountBuffers moves the live-buffer gauge.
func (s *Streamer) accountBuffers(delta int64) {
	s.obs.Set("sim.stream.live_buffers", s.liveBuffers.Add(delta))
}

// Stats returns a snapshot of the streamer's counters.
func (s *Streamer) Stats() StreamStats {
	live := s.liveBytes.Load()
	peak := s.peakLiveBytes.Load()
	if live < 0 {
		live = 0
	}
	if peak < 0 {
		peak = 0
	}
	return StreamStats{
		Broadcasts:    s.broadcasts.Load(),
		Batches:       s.batches.Load(),
		Events:        s.events.Load(),
		StallsNs:      s.stallsNs.Load(),
		GenNs:         s.genNs.Load(),
		LiveBuffers:   s.liveBuffers.Load(),
		LiveBytes:     uint64(live),
		PeakLiveBytes: uint64(peak),
		ArenaReuses:   s.arenaReuses.Load(),
	}
}
