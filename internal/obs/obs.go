// Package obs is the observability layer of the evaluation harness: a
// lightweight run-telemetry recorder with hierarchical timing spans
// (program → arch → algo → stage), monotonic counters, gauges, attachable
// report sections and a machine-readable JSON run report, plus helpers
// exposing Go's standard debug endpoints (net/http/pprof, expvar).
//
// Two constraints of the experiment engine shape the design:
//
//   - Zero overhead when disabled. A nil *Recorder — and the nil *Span it
//     hands out — is a valid no-op recorder: every method is nil-safe, so
//     instrumented code carries no conditionals and telemetry-off runs
//     skip even the clock reads (see Recorder.Now).
//
//   - No feedback into the measured computation. The recorder only
//     observes — clocks, counts, snapshots — and never influences
//     scheduling or results, so the parallel engine's byte-determinism
//     guarantee holds with telemetry on. The differential oracle tests in
//     internal/experiments assert this.
package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"sync"
	"time"
)

// Recorder collects one run's telemetry. Create with New; the zero value
// is not usable but a nil *Recorder is (as a no-op). A Recorder is safe
// for concurrent use: spans, counters and gauges may be recorded from any
// goroutine.
type Recorder struct {
	tool  string
	start time.Time

	mu       sync.Mutex
	spans    []*Span
	counters map[string]int64
	gauges   map[string]int64
	sections map[string]any
}

// New returns an enabled recorder for the named tool, anchored at the
// current time.
func New(tool string) *Recorder {
	return &Recorder{
		tool:     tool,
		start:    time.Now(),
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		sections: make(map[string]any),
	}
}

// Enabled reports whether the recorder actually records. Use it to guard
// work that only produces telemetry inputs (building a label string, say);
// plain recording calls need no guard because they are nil-safe.
func (r *Recorder) Enabled() bool { return r != nil }

// Now returns the current time when the recorder is enabled and the zero
// time otherwise, so disabled telemetry skips the clock read entirely.
// Pair with AddSince.
func (r *Recorder) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Add increments the named monotonic counter by delta. No-op on a nil
// recorder.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// AddSince adds the nanoseconds elapsed since start to the named counter.
// A zero start — what Now returns on a disabled recorder — is ignored, so
// the Now/AddSince pair costs nothing when telemetry is off.
func (r *Recorder) AddSince(name string, start time.Time) {
	if r == nil || start.IsZero() {
		return
	}
	r.Add(name, int64(time.Since(start)))
}

// Set stores the named gauge's current value. No-op on a nil recorder.
func (r *Recorder) Set(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Attach stores an arbitrary JSON-marshalable value as a named report
// section (the summary grid, a table's rows, ...): results, never a copy
// of a counter or gauge. Attaching the same name again overwrites the
// previous value, so a multi-phase run reports each section's final
// state.
func (r *Recorder) Attach(name string, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sections[name] = v
	r.mu.Unlock()
}

// Span opens a top-level span. End it with Span.End. Returns nil (a valid
// no-op span) on a nil recorder.
func (r *Recorder) Span(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{r: r, name: name, start: time.Now()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// Span is one timed region of a run. Spans nest: Child opens a sub-span,
// and the report renders the tree. All methods are nil-safe, so code paths
// instrumented against a disabled recorder pay nothing.
type Span struct {
	r     *Recorder
	name  string
	start time.Time

	// Guarded by r.mu.
	dur      time.Duration
	ended    bool
	attrs    map[string]int64
	children []*Span
}

// Child opens a sub-span of s. Returns nil on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{r: s.r, name: name, start: time.Now()}
	s.r.mu.Lock()
	s.children = append(s.children, c)
	s.r.mu.Unlock()
	return c
}

// SetInt records an integer attribute on the span (a queue wait in
// nanoseconds, a shard count, a utilization in basis points, ...).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64)
	}
	s.attrs[key] = v
	s.r.mu.Unlock()
}

// End closes the span, fixing its duration. A second End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.r.mu.Lock()
	if !s.ended {
		s.dur, s.ended = d, true
	}
	s.r.mu.Unlock()
}

// Report is the machine-readable form of one run's telemetry. Field names
// are the stable JSON schema consumed by `make report` and the schema test
// in cmd/baexp.
type Report struct {
	// Tool names the producing command.
	Tool string `json:"tool"`
	// Start is the wall-clock time the recorder was created.
	Start time.Time `json:"start"`
	// WallNs is the nanoseconds elapsed from Start to the snapshot.
	WallNs int64 `json:"wall_ns"`
	// Counters and Gauges hold the flat metric maps.
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// Spans is the timing tree, in open order.
	Spans []*SpanReport `json:"spans,omitempty"`
	// Sections holds the structured results each experiment attaches (the
	// suite's summary grid, Table 2's rows).
	Sections map[string]any `json:"sections,omitempty"`
}

// SpanReport is one span of the report's timing tree.
type SpanReport struct {
	Name string `json:"name"`
	// StartNs is the span's start as an offset from the report's Start.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span's duration; for a span still open at snapshot
	// time it is the elapsed time so far and Open is set.
	DurNs    int64            `json:"dur_ns"`
	Open     bool             `json:"open,omitempty"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*SpanReport    `json:"children,omitempty"`
}

// Report snapshots the recorder. Nil recorders return nil.
func (r *Recorder) Report() *Report {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		Tool:     r.tool,
		Start:    r.start,
		WallNs:   int64(now.Sub(r.start)),
		Counters: cloneMap(r.counters),
		Gauges:   cloneMap(r.gauges),
		Sections: make(map[string]any, len(r.sections)),
	}
	for k, v := range r.sections {
		rep.Sections[k] = v
	}
	for _, s := range r.spans {
		rep.Spans = append(rep.Spans, s.report(r.start, now))
	}
	return rep
}

// report renders one span subtree; the caller holds r.mu.
func (s *Span) report(base, now time.Time) *SpanReport {
	sr := &SpanReport{
		Name:    s.name,
		StartNs: int64(s.start.Sub(base)),
		DurNs:   int64(s.dur),
		Attrs:   cloneMap(s.attrs),
	}
	if !s.ended {
		sr.DurNs = int64(now.Sub(s.start))
		sr.Open = true
	}
	for _, c := range s.children {
		sr.Children = append(sr.Children, c.report(base, now))
	}
	return sr
}

func cloneMap(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// WriteJSON writes the report as indented JSON. On a nil recorder it
// writes nothing and returns nil.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	data, err := json.MarshalIndent(r.Report(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Publish registers the recorder's live report as an expvar variable, so
// a debug server's /debug/vars shows current counters, gauges and spans.
// Call at most once per name per process (expvar panics on duplicates).
func (r *Recorder) Publish(name string) {
	if r == nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Report() }))
}

// ListenAndServeDebug serves Go's standard debug endpoints —
// /debug/pprof (net/http/pprof) and /debug/vars (expvar) — on addr. It
// blocks like http.ListenAndServe; run it on its own goroutine.
func ListenAndServeDebug(addr string) error {
	return http.ListenAndServe(addr, nil)
}

// DebugHandler returns the handler behind ListenAndServeDebug — the default
// mux carrying /debug/pprof (registered by this package's net/http/pprof
// import) and /debug/vars (expvar) — so a server with its own mux can mount
// the standard debug endpoints under its /debug/ prefix.
func DebugHandler() http.Handler { return http.DefaultServeMux }
