package load

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"
)

// Outcome is everything the runner records about one completed request.
type Outcome struct {
	// Status is the HTTP status code, or 0 on a transport error.
	Status int
	// CacheHit reports the daemon's X-Balign-Cache: hit header.
	CacheHit bool
	// Latency is the request's service time.
	Latency time.Duration
	// Err is the transport error, nil on any HTTP response.
	Err error
}

// Doer issues one request from the corpus. idx is the global request index;
// clk is the issuing worker's clock (the fake transport advances it by the
// modeled latency, the HTTP transport ignores it — real time elapses).
type Doer interface {
	Do(ctx context.Context, clk Clock, idx int, e Entry) Outcome
}

// HTTPDoer drives a live balignd over HTTP.
type HTTPDoer struct {
	Base    string // e.g. http://127.0.0.1:8080 — no trailing slash
	Client  *http.Client
	Timeout time.Duration // per-request deadline; 0 means no extra deadline
}

// NewHTTPDoer builds an HTTP transport with a connection pool sized for
// closed-loop workers.
func NewHTTPDoer(base string, timeout time.Duration) *HTTPDoer {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTPDoer{Base: base, Client: &http.Client{Transport: tr}, Timeout: timeout}
}

func (d *HTTPDoer) Do(ctx context.Context, clk Clock, idx int, e Entry) Outcome {
	if d.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.Timeout)
		defer cancel()
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.Base+e.Path, bytes.NewReader(e.Body))
	if err != nil {
		return Outcome{Err: err, Latency: time.Since(start)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.Client.Do(req)
	if err != nil {
		return Outcome{Err: err, Latency: time.Since(start)}
	}
	// Drain so the connection is reusable; the runner only needs headers.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return Outcome{
		Status:   resp.StatusCode,
		CacheHit: resp.Header.Get("X-Balign-Cache") == "hit",
		Latency:  time.Since(start),
	}
}

// FakeDoer is the virtual-mode transport: it never touches the network and
// computes every outcome as a pure function of (seed, idx) plus the
// precomputed would-be-cache-hit plan. Latency is synthesized and applied
// to the worker's virtual clock, so pacing, saturation behavior and the
// histogram all exercise the real runner code paths deterministically.
type FakeDoer struct {
	Seed int64
	// Hits[idx] is the plan's would-be cache-hit flag for request idx.
	Hits []bool
	// ErrEvery injects one deterministic 429 per this many requests
	// (0 disables); exercises the error-classification buckets.
	ErrEvery int
}

// Fake latency model: cache hits are fast and tight, misses pay a
// kind-dependent compute cost with deterministic jitter.
const (
	fakeHitBaseNs   = 180_000   // 180µs floor for a cache hit
	fakeMissBaseNs  = 2_500_000 // 2.5ms floor for an align compute
	fakeSuiteExtra  = 9_000_000 // suite simulations are the heavy tail
	fakeInlineExtra = 3_000_000 // inline simulations sit in between
)

func (d *FakeDoer) Do(ctx context.Context, clk Clock, idx int, e Entry) Outcome {
	if err := ctx.Err(); err != nil {
		return Outcome{Err: err}
	}
	rng := splitmix64(uint64(d.Seed)*0x9e3779b97f4a7c15 ^ (uint64(idx)+1)*0xda942042e4dd58b5)
	if d.ErrEvery > 0 && idx%d.ErrEvery == d.ErrEvery-1 {
		lat := time.Duration(50_000 + rng%100_000)
		clk.Advance(lat)
		return Outcome{Status: http.StatusTooManyRequests, Latency: lat}
	}
	hit := idx < len(d.Hits) && d.Hits[idx]
	var ns uint64
	if hit {
		ns = fakeHitBaseNs + rng%120_000
	} else {
		ns = fakeMissBaseNs + rng%1_500_000
		switch e.Kind {
		case KindSimSuite:
			ns += fakeSuiteExtra + (rng>>16)%4_000_000
		case KindSimInline:
			ns += fakeInlineExtra + (rng>>16)%2_000_000
		}
	}
	lat := time.Duration(ns)
	clk.Advance(lat)
	return Outcome{Status: http.StatusOK, CacheHit: hit, Latency: lat}
}

// errString renders a transport error into a stable bucket label.
func errString(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	return "transport"
}
