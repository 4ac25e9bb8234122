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

// Doer issues one request from the corpus. idx is the request's index in
// the run's arrival order; HTTPDoer ignores it, and a test transport
// derives a deterministic outcome from it.
type Doer interface {
	Do(ctx context.Context, idx int, e Entry) Outcome
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

func (d *HTTPDoer) Do(ctx context.Context, _ int, e Entry) Outcome {
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
