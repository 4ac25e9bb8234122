// Package serve is the alignment-as-a-service layer: a hardened HTTP JSON
// server exposing the repository's whole pipeline — assemble → align →
// cost-model pricing → trace-driven simulation — as two POST endpoints,
// plus the standard health and debug surfaces.
//
//	POST /v1/align     assemble a program, align it under a cost model,
//	                   return the plan with per-algorithm and per-site
//	                   cost deltas (and optionally the rewritten assembly)
//	POST /v1/simulate  align and stream-simulate across requested
//	                   architectures — either inline assembly + profile or
//	                   named suite programs; the suite report is
//	                   byte-identical to `baexp suite` output
//	GET  /healthz      liveness (503 while draining)
//	GET  /debug/*      expvar + net/http/pprof via internal/obs
//
// Hardening, in request order: a drain flag that 503s new work during
// graceful shutdown, a bounded admission semaphore with queue-wait
// measurement and 429 on saturation, a per-request deadline whose context
// cancellation is threaded through the experiment engine down to the
// streaming broadcast, a request body size limit, a keyed LRU result
// cache (content hash of the canonical request), and panic-to-500 recovery.
// Every failure is a JSON error envelope; every stage feeds serve.*
// counters and gauges in the observability recorder.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"balign/internal/obs"
	"balign/internal/sim"
)

// Defaults for the zero Config. The admission default is deliberately
// larger than GOMAXPROCS: one request rarely saturates every core (the
// per-request engine parallelism defaults to 1), so a little oversubscription
// keeps the cores busy while the semaphore still bounds memory.
const (
	DefaultMaxInFlight  = 8
	DefaultQueueWait    = 250 * time.Millisecond
	DefaultTimeout      = 60 * time.Second
	DefaultMaxBodyBytes = 8 << 20
	DefaultCacheEntries = 256
	DefaultCacheBytes   = 64 << 20
)

// Config configures a Server. The zero value is usable: every field has a
// default.
type Config struct {
	// MaxInFlight bounds concurrently executing align/simulate requests
	// (the admission semaphore); <=0 means DefaultMaxInFlight.
	MaxInFlight int
	// QueueWait is how long an arriving request may wait for an admission
	// slot before being rejected with 429; 0 means DefaultQueueWait and a
	// negative value means reject immediately when saturated.
	QueueWait time.Duration
	// Timeout is the per-request deadline; the context it cancels is
	// threaded through alignment and simulation down to the streaming
	// broadcast. <=0 means DefaultTimeout.
	Timeout time.Duration
	// MaxBodyBytes caps request bodies; <=0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// CacheEntries / CacheBytes bound the keyed LRU result cache; <=0
	// means the defaults. CacheEntries = -1 disables the cache (used by
	// tests; CacheBytes is then ignored).
	CacheEntries int
	CacheBytes   int64
	// Parallelism is the per-request experiment-engine shard bound, in
	// both simulate modes (0 = GOMAXPROCS). Cross-request parallelism comes
	// from MaxInFlight; per-request sharding mainly helps latency on an idle
	// server.
	Parallelism int
	// Obs receives serve.* counters and gauges plus the engine, cache and
	// stream telemetry of request work. Nil disables telemetry.
	Obs *obs.Recorder
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return DefaultMaxInFlight
	}
	return c.MaxInFlight
}

func (c Config) queueWait() time.Duration {
	if c.QueueWait == 0 {
		return DefaultQueueWait
	}
	if c.QueueWait < 0 {
		return 0
	}
	return c.QueueWait
}

func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return DefaultTimeout
	}
	return c.Timeout
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return DefaultMaxBodyBytes
	}
	return c.MaxBodyBytes
}

// Server is the alignment service. Create with New; a Server is safe for
// concurrent use and designed to be shared by one http.Server.
type Server struct {
	cfg   Config
	obs   *obs.Recorder
	mux   *http.ServeMux
	cache *resultCache
	slots chan struct{}
	str   *sim.Streamer

	draining atomic.Bool
	inflight atomic.Int64

	// panicHook observes recovered handler panics (test seam; the response
	// is a 500 envelope either way).
	panicHook func(any)
	// testBlock, when non-nil, parks every admitted request until the
	// channel closes — the deterministic way the saturation and drain
	// tests hold a slot without timing games.
	testBlock chan struct{}
	// kernel selects the simulation executor of every simulate request
	// ("" = flat; test seam: the parity test serves the goldens from the
	// reference simulators).
	kernel string
}

// New returns a ready Server. Every Config field has a default, so the
// error is nil for any cfg.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:   cfg,
		obs:   cfg.Obs,
		mux:   http.NewServeMux(),
		slots: make(chan struct{}, cfg.maxInFlight()),
		str:   sim.NewStreamer(cfg.Obs),
	}
	if cfg.CacheEntries >= 0 {
		entries, bytes := cfg.CacheEntries, cfg.CacheBytes
		if entries == 0 {
			entries = DefaultCacheEntries
		}
		if bytes <= 0 {
			bytes = DefaultCacheBytes
		}
		s.cache = newResultCache(entries, bytes, cfg.Obs)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/debug/", obs.DebugHandler())
	for _, e := range endpoints {
		e := e
		s.mux.HandleFunc(e.path, func(w http.ResponseWriter, r *http.Request) {
			s.serveAPI(w, r, e)
		})
	}
	return s, nil
}

// Handler returns the server's root handler (panic recovery included).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.obs.Add("serve.panics", 1)
				if s.panicHook != nil {
					s.panicHook(v)
				}
				// Best effort: if the handler already wrote, this write
				// fails silently, which is the most we can do mid-response.
				writeError(w, s.obs, http.StatusInternalServerError, "internal",
					"internal error (panic recovered)")
			}
		}()
		s.obs.Add("serve.requests", 1)
		s.mux.ServeHTTP(w, r)
	})
}

// BeginDrain puts the server into draining mode: /healthz reports 503 (so
// load balancers stop routing here) and new align/simulate requests are
// rejected with 503, while requests already admitted run to completion.
// Call it before http.Server.Shutdown, which then waits for the in-flight
// work the drain flag is protecting.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.obs.Add("serve.drains", 1)
	}
}

// InFlight returns the number of admitted requests currently executing.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// CacheStats snapshots the result cache ({} when the cache is disabled).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// apiError is a failure with its HTTP mapping. Everything the endpoints
// return to clients flows through the JSON error envelope.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// ctxError maps a request-context failure onto its HTTP status: the
// deadline is the server's (504), an early client disconnect is not an
// error of ours at all but still needs an envelope.
func ctxError(err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &apiError{status: http.StatusGatewayTimeout, code: "deadline_exceeded",
			msg: "request deadline exceeded"}
	}
	return &apiError{status: http.StatusServiceUnavailable, code: "cancelled",
		msg: "request cancelled"}
}

// errEnvelope is the uniform JSON error shape; the fuzz target asserts
// every non-200 response decodes into it.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, rec *obs.Recorder, status int, code, msg string) {
	rec.Add("serve.errors", 1)
	rec.Add(fmt.Sprintf("serve.status.%d", status), 1)
	var env errEnvelope
	env.Error.Code = code
	env.Error.Message = msg
	body, err := json.Marshal(env)
	if err != nil {
		// Unreachable for this fixed shape; keep the envelope contract
		// anyway.
		body = []byte(`{"error":{"code":"internal","message":"error encoding failed"}}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func (s *Server) writeAPIError(w http.ResponseWriter, endpoint string, aerr *apiError) {
	s.obs.Add("serve."+endpoint+".errors", 1)
	writeError(w, s.obs, aerr.status, aerr.code, aerr.msg)
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503
// once draining so load balancers drop the instance before shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, s.obs, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// admit acquires an admission slot, waiting at most the configured queue
// wait. The wait — successful or not — is recorded as queue-wait time.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	start := time.Now()
	defer func() { s.obs.Add("serve.admission.wait_ns", int64(time.Since(start))) }()
	release = func() {
		<-s.slots
		s.obs.Set("serve.inflight", s.inflight.Add(-1))
	}
	admitted := func() (func(), bool) {
		s.obs.Add("serve.admission.admitted", 1)
		s.obs.Set("serve.inflight", s.inflight.Add(1))
		return release, true
	}
	select {
	case s.slots <- struct{}{}:
		return admitted()
	default:
	}
	wait := s.cfg.queueWait()
	if wait <= 0 {
		s.obs.Add("serve.admission.rejected", 1)
		return nil, false
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return admitted()
	case <-timer.C:
	case <-ctx.Done():
	}
	s.obs.Add("serve.admission.rejected", 1)
	return nil, false
}

// serveAPI runs the shared request pipeline for one POST endpoint: method
// and drain checks, admission, deadline, body limit, parse, cache lookup,
// compute, cache fill. The endpoint's parser returns the canonical request
// value — its JSON marshalling (together with the endpoint name) is the
// cache key, so two bodies that decode identically share one cached result
// (and RequestKey derives exactly the keys this handler caches). compute
// returns the response value to be marshalled; cached entries replay the
// exact stored bytes, so equal keys always produce byte-identical bodies.
func (s *Server) serveAPI(w http.ResponseWriter, r *http.Request, e endpointDef) {
	endpoint := e.name
	s.obs.Add("serve."+endpoint+".requests", 1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeAPIError(w, endpoint, &apiError{status: http.StatusMethodNotAllowed,
			code: "method_not_allowed", msg: "use POST"})
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.writeAPIError(w, endpoint, &apiError{status: http.StatusServiceUnavailable,
			code: "draining", msg: "server is draining; retry against another instance"})
		return
	}
	release, ok := s.admit(r.Context())
	if !ok {
		w.Header().Set("Retry-After", "1")
		s.writeAPIError(w, endpoint, &apiError{status: http.StatusTooManyRequests,
			code: "saturated", msg: "server is at its in-flight request limit"})
		return
	}
	defer release()
	if s.testBlock != nil {
		<-s.testBlock
	}

	body, err := readBody(w, r, s.cfg.maxBodyBytes())
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			s.writeAPIError(w, endpoint, &apiError{status: http.StatusRequestEntityTooLarge,
				code: "body_too_large", msg: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)})
			return
		}
		s.writeAPIError(w, endpoint, badRequest("bad_body", "reading request body: %v", err))
		return
	}
	req, aerr := e.parse(body)
	if aerr != nil {
		s.writeAPIError(w, endpoint, aerr)
		return
	}

	key, aerr := cacheKey(endpoint, req)
	if aerr != nil {
		s.writeAPIError(w, endpoint, aerr)
		return
	}
	if cached, ok := s.cache.Get(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Balign-Cache", "hit")
		w.Write(cached)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.timeout())
	defer cancel()
	resp, aerr := e.compute(s, ctx, req)
	if aerr != nil {
		// The deadline wins attribution: a compute error observed after
		// the context expired is almost always cancellation fallout.
		if ctxErr := ctx.Err(); ctxErr != nil {
			aerr = ctxError(ctxErr)
		}
		s.writeAPIError(w, endpoint, aerr)
		return
	}
	out, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		s.writeAPIError(w, endpoint, &apiError{status: http.StatusInternalServerError,
			code: "internal", msg: fmt.Sprintf("encoding response: %v", err)})
		return
	}
	out = append(out, '\n')
	s.cache.Put(key, out)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Balign-Cache", "miss")
	w.Write(out)
}

// readBody drains the request body under the size limit.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
}

// cacheKey derives the content hash naming one request's result: the
// endpoint plus the canonical JSON of the parsed request, so semantically
// identical bodies (whitespace, field order) share an entry.
func cacheKey(endpoint string, req any) (string, *apiError) {
	canon, err := json.Marshal(req)
	if err != nil {
		return "", badRequest("bad_request", "canonicalizing request: %v", err)
	}
	sum := sha256.Sum256(append([]byte(endpoint+"\x00"), canon...))
	return hex.EncodeToString(sum[:]), nil
}

// decodeStrict parses JSON into dst, rejecting unknown fields and trailing
// garbage — the strictness the fuzz target leans on.
func decodeStrict(body []byte, dst any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("bad_json", "decoding request: %v", err)
	}
	var extra any
	if err := dec.Decode(&extra); err == nil || !errors.Is(err, io.EOF) {
		return badRequest("bad_json", "trailing data after request object")
	}
	return nil
}
