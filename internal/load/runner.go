// Package load is the closed-loop load harness behind cmd/baload: RPS
// schedules (constant, ramp, sweep-to-saturation, burst), a seeded
// deterministic request corpus covering every balignd request encoding,
// bounded closed-loop workers paced on the wall clock, log-bucketed
// latency histograms with p50/p99/p999, and a stable JSON report.
//
// The request sequence is a pure function of the seed: request i is
// issued by worker i%W with the corpus entry Corpus.Plan picks for i, and
// every aggregate is an order-independent integer sum. So a Doer whose
// outcomes depend only on the request index yields the same counts and
// histograms from any interleaving of the workers. The rates, the
// lateness and the wall duration are measurements of the run.
package load

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// RunConfig is one load-generation run.
type RunConfig struct {
	Schedule Schedule
	Corpus   *Corpus
	Doer     Doer
	Workers  int
	// Seed drives the request→entry plan (defaults to the corpus seed).
	Seed int64
}

// slotAgg accumulates one schedule slot's order-independent counters.
type slotAgg struct {
	sent     atomic.Uint64
	ok       atomic.Uint64
	errs     atomic.Uint64
	lastEnd  atomic.Uint64 // max completion offset (ns) seen in this slot
	totalLat atomic.Uint64
}

// kindAgg accumulates one request kind's counters and latency histogram.
type kindAgg struct {
	hist Hist
	sent atomic.Uint64
	hits atomic.Uint64
}

// Run executes the schedule against the corpus and returns the report.
// Closed-loop semantics: each of Workers workers owns the arrival indices
// i ≡ worker (mod Workers) and issues them in order, sleeping until each
// arrival time but never overlapping its own requests — so when the target
// rate exceeds capacity the achieved rate saturates instead of piling up
// unbounded in-flight work.
func Run(ctx context.Context, cfg RunConfig) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Corpus == nil || len(cfg.Corpus.Entries) == 0 {
		return nil, fmt.Errorf("load: empty corpus")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Corpus.Seed
	}

	arr := cfg.Schedule.arrivals()
	if len(arr) == 0 {
		return nil, fmt.Errorf("load: schedule yields zero requests")
	}
	plan := *cfg.Corpus
	plan.Seed = seed
	picks, _ := plan.Plan(len(arr))

	slots := make([]slotAgg, len(cfg.Schedule.Slots))
	kinds := map[string]*kindAgg{}
	for _, e := range cfg.Corpus.Entries {
		if kinds[e.Kind] == nil {
			kinds[e.Kind] = &kindAgg{}
		}
	}
	var (
		overall   Hist
		sent      atomic.Uint64
		okCount   atomic.Uint64
		cacheHits atomic.Uint64
		status429 atomic.Uint64
		status503 atomic.Uint64
		status504 atomic.Uint64
		badStatus atomic.Uint64 // unexpected 4xx/5xx
		transport atomic.Uint64
		deadline  atomic.Uint64
		lateness  atomic.Uint64 // total ns issued after target time
	)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(arr); i += cfg.Workers {
				a := arr[i]
				if !sleepUntil(ctx, start.Add(a.at)) {
					return
				}
				issuedAt := time.Since(start)
				e := cfg.Corpus.Entries[picks[i]]
				out := cfg.Doer.Do(ctx, i, e)
				if out.Err != nil && ctx.Err() != nil && errString(out.Err) != "deadline" {
					return // run cancelled, not a request failure
				}

				sent.Add(1)
				if late := issuedAt - a.at; late > 0 {
					lateness.Add(uint64(late))
				}
				sa := &slots[a.slot]
				sa.sent.Add(1)
				sa.totalLat.Add(uint64(out.Latency))
				end := uint64(issuedAt + out.Latency)
				for {
					cur := sa.lastEnd.Load()
					if end <= cur || sa.lastEnd.CompareAndSwap(cur, end) {
						break
					}
				}
				ka := kinds[e.Kind]
				ka.sent.Add(1)
				ka.hist.Observe(out.Latency)
				overall.Observe(out.Latency)

				switch {
				case out.Err != nil:
					sa.errs.Add(1)
					if errString(out.Err) == "deadline" {
						deadline.Add(1)
					} else {
						transport.Add(1)
					}
				case out.Status == 200:
					sa.ok.Add(1)
					okCount.Add(1)
					if out.CacheHit {
						cacheHits.Add(1)
						ka.hits.Add(1)
					}
				case out.Status == 429:
					sa.errs.Add(1)
					status429.Add(1)
				case out.Status == 503:
					sa.errs.Add(1)
					status503.Add(1)
				case out.Status == 504:
					sa.errs.Add(1)
					status504.Add(1)
				default:
					sa.errs.Add(1)
					badStatus.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	r := buildReport(cfg, seed, arr, slots, kinds, reportTotals{
		overall: &overall, sent: sent.Load(), ok: okCount.Load(),
		cacheHits: cacheHits.Load(), s429: status429.Load(),
		s503: status503.Load(), s504: status504.Load(),
		badStatus: badStatus.Load(), transport: transport.Load(),
		deadline: deadline.Load(), latenessNs: lateness.Load(),
		wallDur: time.Since(start),
	})
	r.Host = thisHost()
	return r, nil
}

// sleepUntil waits for the wall-clock instant t. It reports false if ctx
// ends first, or has already ended when t is past.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
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
