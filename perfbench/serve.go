package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"balign/internal/load"
	"balign/internal/obs"
	"balign/internal/serve"
)

// serveSpec is one balignd traffic mix.
type serveSpec struct {
	// hot warms hotKeys entries and replays them (every timed request is a
	// cache hit); otherwise every timed request is a distinct entry (a miss).
	hot bool
	// echoMs is the echo server's mean round trip on the host the
	// bounds were set on (2 vCPUs, see README.md). The reported times are
	// scaled to it.
	echoMs float64
}

var serveSpecs = map[string]*serveSpec{
	// A hit is mostly HTTP, so its echo only echoes.
	"serve-hot": {hot: true, echoMs: 0.08},
	// A miss is mostly computation, so its echo first runs fixedCompute.
	"serve-cold": {hot: false, echoMs: 2.5},
}

const (
	// clients is the closed loop's worker count; each worker holds one
	// keep-alive connection to balignd and one to the echo server.
	clients = 2
	// hotKeys is the warmed working set, half the default 256-entry LRU.
	hotKeys = 128
	// coldRate bounds the cold request rate per timed second, sizing the
	// corpus so the run cannot exhaust its distinct entries (about 300
	// to 450 requests per second of balignd slices ran on two cores).
	coldRate = 700
	// slice is the interleaving period: the timed window alternates
	// balignd slices and echo slices of this length, starting with
	// balignd.
	slice = 100 * time.Millisecond
	// sampleEvery: one cold response in sampleEvery is kept and checked
	// against the cache-disabled reference server after the window.
	sampleEvery = 16
	// keyReps repeats the per-body RequestKey and handler timings.
	keyReps = 5
)

// coldMix is the serve workloads' request mix: every request kind except
// simulate-suite, whose cold compute is a whole suite-align-like grid.
var coldMix = []load.MixItem{
	{Kind: load.KindAlignAsm, Weight: 40},
	{Kind: load.KindAlignCFGJSON, Weight: 15},
	{Kind: load.KindAlignCFGDOT, Weight: 15},
	{Kind: load.KindSimInline, Weight: 20},
}

// daemon is balignd as cmd/balignd builds it with no flags (default
// serve.Config plus its obs.New recorder), serving a loopback listener from
// inside this process.
type daemon struct {
	srv  *serve.Server
	rec  *obs.Recorder
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon() (*daemon, error) {
	rec := obs.New("balignd")
	srv, err := serve.New(serve.Config{
		MaxInFlight:  serve.DefaultMaxInFlight,
		QueueWait:    serve.DefaultQueueWait,
		Timeout:      serve.DefaultTimeout,
		MaxBodyBytes: serve.DefaultMaxBodyBytes,
		CacheEntries: serve.DefaultCacheEntries,
		CacheBytes:   serve.DefaultCacheBytes,
		Obs:          rec,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		rec:  rec,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon as balignd does on SIGTERM: new work is refused,
// in-flight requests finish, the listener closes, and stop returns once the
// serving goroutine has exited.
func (d *daemon) stop() error {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if err != nil {
		d.hs.Close()
	}
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// newClient returns a client holding at most one connection per worker.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// callHandler serves one request through h directly, without a network.
func callHandler(h http.Handler, e load.Entry) (int, []byte) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, e.Path, bytes.NewReader(e.Body)))
	return rr.Code, rr.Body.Bytes()
}

// uniqueEntries returns the first n entries of load.BuildCorpus(seed, ·,
// coldMix) with distinct cache keys.
func uniqueEntries(seed int64, n int) ([]load.Entry, error) {
	for size := n + n/4 + 16; size <= 64*n; size *= 2 {
		c, err := load.BuildCorpus(seed, size, coldMix)
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool, n)
		out := make([]load.Entry, 0, n)
		for _, e := range c.Entries {
			if !seen[e.Key] {
				seen[e.Key] = true
				out = append(out, e)
				if len(out) == n {
					return out, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("corpus for seed %d has fewer than %d distinct keys", seed, n)
}

// serveEnv is one set-up serve workload: the daemon, the echo server, the
// client, the entries and (hot) the warmed response bodies.
type serveEnv struct {
	d       *daemon
	echo    *httptest.Server
	client  *http.Client
	entries []load.Entry
	warm    [][]byte
}

func (env *serveEnv) close() error {
	env.client.CloseIdleConnections()
	env.echo.Close()
	return env.d.stop()
}

// setupServe starts the daemon, builds the workload's entries and, on the
// hot workload, warms every entry into the cache.
func setupServe(spec *serveSpec, seed int64, seconds int) (*serveEnv, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	env := &serveEnv{d: d, echo: newEcho(!spec.hot), client: newClient()}
	n := hotKeys
	if !spec.hot {
		n = coldRate * seconds
	}
	if env.entries, err = uniqueEntries(seed, n); err == nil && spec.hot {
		err = env.warmUp()
	}
	if err != nil {
		return nil, errors.Join(err, env.close())
	}
	return env, nil
}

func (env *serveEnv) warmUp() error {
	env.warm = make([][]byte, len(env.entries))
	for i, e := range env.entries {
		status, body, err := post(env.client, env.d.url+e.Path, e.Body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warming %s entry %d: status %d: %s", e.Kind, i, status, body)
		}
		env.warm[i] = body
	}
	return nil
}

// sample is one timed request, kept small: a hot run records over a
// hundred thousand, and their storage shows in max_rss_mb.
type sample struct {
	entry int32
	ok    bool
	lat   float32 // seconds
}

// loopSpec drives closedLoop.
type loopSpec struct {
	// pick names the entry of the i-th request; a negative value ends the
	// run.
	pick func(i int) int
	// check judges a response on the worker goroutine.
	check func(entry, status int, body []byte) bool
	// keep reports whether the body of a response for entry is kept for a
	// later check.
	keep func(entry int) bool
}

// loopResult is what closedLoop measured.
type loopResult struct {
	samples []sample       // balignd requests
	kept    map[int][]byte // kept bodies by entry
	echo    []float64      // echo round trips, seconds
	alloc   uint64         // bytes allocated during balignd slices
}

// inEchoSlice reports whether d into the window falls in an echo slice.
func inEchoSlice(d time.Duration) bool { return (d/slice)%2 == 1 }

// closedLoop runs clients workers, each sending its next request only after
// the previous one completed, until the timed window closes. In balignd
// slices a worker sends the next picked entry to the daemon; in echo
// slices it sends an entry's body to the echo server. A request belongs to
// the slice it was sent in. Bytes allocated are read at every slice
// boundary and summed over the balignd slices.
func closedLoop(env *serveEnv, seconds int, ls loopSpec) (*loopResult, error) {
	var next atomic.Int64
	var echoBad atomic.Int64
	per := make([][]sample, clients)
	echoes := make([][]float64, clients)
	kept := make([]map[int][]byte, clients)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	allocDone := make(chan uint64)
	start := time.Now()
	go func() { allocDone <- sliceAlloc(start, stop) }()
	for w := 0; w < clients; w++ {
		kept[w] = map[int][]byte{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; untilDeadline(start, seconds); {
				if inEchoSlice(time.Since(start)) {
					body := env.entries[r%len(env.entries)].Body
					r += clients
					t0 := time.Now()
					status, out, err := post(env.client, env.echo.URL, body)
					if err != nil || status != http.StatusOK || !bytes.Equal(out, body) {
						echoBad.Add(1)
						return
					}
					echoes[w] = append(echoes[w], time.Since(t0).Seconds())
					continue
				}
				e := ls.pick(int(next.Add(1) - 1))
				if e < 0 {
					return
				}
				entry := env.entries[e]
				t0 := time.Now()
				status, body, err := post(env.client, env.d.url+entry.Path, entry.Body)
				s := sample{
					entry: int32(e),
					lat:   float32(time.Since(t0).Seconds()),
					ok:    err == nil && ls.check(e, status, body),
				}
				if ls.keep != nil && ls.keep(e) {
					kept[w][e] = body
				}
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	res := &loopResult{kept: map[int][]byte{}, alloc: <-allocDone}
	if n := echoBad.Load(); n > 0 {
		return nil, fmt.Errorf("%d echo requests failed", n)
	}
	for w := range per {
		res.samples = append(res.samples, per[w]...)
		res.echo = append(res.echo, echoes[w]...)
		for e, b := range kept[w] {
			res.kept[e] = b
		}
	}
	return res, nil
}

// sliceAlloc reads the bytes allocated at every slice boundary from start
// until stop is closed, and returns the sum over balignd slices. The
// requests in flight at a boundary are split between its two slices.
func sliceAlloc(start time.Time, stop <-chan struct{}) uint64 {
	var sum uint64
	last := totalAlloc()
	for k := 1; ; k++ {
		t := time.NewTimer(time.Until(start.Add(time.Duration(k) * slice)))
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
		}
		a := totalAlloc()
		if (k-1)%2 == 0 {
			sum += a - last
		}
		last = a
		select {
		case <-stop:
			return sum
		default:
		}
	}
}

// mix64 is splitmix64's finalizer: the benchmark's seeded choices are pure
// functions of (seed, index).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// referenceBodies computes each listed entry's response on a second,
// cache-disabled server called directly, returning the bodies and each
// call's duration in seconds.
func referenceBodies(entries []load.Entry, idx []int) (map[int][]byte, []float64, error) {
	ref, err := serve.New(serve.Config{CacheEntries: -1})
	if err != nil {
		return nil, nil, err
	}
	h := ref.Handler()
	bodies := make(map[int][]byte, len(idx))
	durs := make([]float64, 0, len(idx))
	for _, e := range idx {
		t0 := time.Now()
		status, body := callHandler(h, entries[e])
		durs = append(durs, time.Since(t0).Seconds())
		if status != http.StatusOK {
			return nil, nil, fmt.Errorf("reference %s entry %d: status %d: %s", entries[e].Kind, e, status, body)
		}
		bodies[e] = body
	}
	return bodies, durs, nil
}

// checkHot marks and counts the timed hot responses that do not match the
// reference: every response was compared with its entry's warmed body in
// the loop, so a warmed body that differs from the reference fails every
// request that matched it.
func checkHot(samples []sample, warm [][]byte, ref map[int][]byte) int {
	failed := 0
	for i := range samples {
		s := &samples[i]
		s.ok = s.ok && bytes.Equal(warm[s.entry], ref[int(s.entry)])
		if !s.ok {
			failed++
		}
	}
	return failed
}

// checkCold marks and counts the timed cold requests that failed: a
// non-200 status, or a kept body that differs from the reference.
func checkCold(samples []sample, kept, ref map[int][]byte) int {
	failed := 0
	for i := range samples {
		s := &samples[i]
		body, ok := kept[int(s.entry)]
		s.ok = s.ok && (!ok || bytes.Equal(body, ref[int(s.entry)]))
		if !s.ok {
			failed++
		}
	}
	return failed
}

// runServe measures one serve workload. Set-up runs serveSetupReps times;
// each earlier environment is torn down, outside the timing, before the
// next is set up.
func runServe(spec *serveSpec, o options) (*Result, error) {
	var env *serveEnv
	var setup []float64
	for r := 0; r < serveSetupReps; r++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if env, err = setupServe(spec, o.seed, o.seconds); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	res, err := measureServe(env, spec, o, setup)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	return res, err
}

// measureServe runs the timed closed loop on a set-up environment, checks
// the responses against the cache-disabled reference outside the window,
// and reduces the samples to end-to-end or per-layer metrics.
func measureServe(env *serveEnv, spec *serveSpec, o options, setup []float64) (*Result, error) {
	ls := loopSpec{check: func(_, status int, _ []byte) bool { return status == http.StatusOK }}
	if spec.hot {
		c := &load.Corpus{Seed: o.seed, Entries: env.entries}
		picks, _ := c.Plan(1 << 16)
		ls.pick = func(i int) int { return picks[i%len(picks)] }
		ls.check = func(e, status int, body []byte) bool {
			return status == http.StatusOK && bytes.Equal(body, env.warm[e])
		}
	} else {
		ls.pick = func(i int) int {
			if i >= len(env.entries) {
				return -1
			}
			return i
		}
		ls.keep = func(e int) bool { return mix64(uint64(o.seed)^uint64(e)*0x2545f4914f6cdd1d)%sampleEvery == 0 }
	}

	cache0, rep0 := env.d.srv.CacheStats(), env.d.rec.Report()
	loop, err := closedLoop(env, o.seconds, ls)
	if err != nil {
		return nil, err
	}
	cache1, rep1 := env.d.srv.CacheStats(), env.d.rec.Report()
	samples, kept := loop.samples, loop.kept
	if len(samples) == 0 || len(loop.echo) == 0 {
		return nil, errors.New("no request completed in the timed window")
	}

	// Check outputs against the cache-disabled reference, outside the
	// window.
	var checked []int
	if spec.hot {
		for i := range env.entries {
			checked = append(checked, i)
		}
	} else {
		for e := range kept {
			checked = append(checked, e)
		}
		sort.Ints(checked)
	}
	ref, refDurs, err := referenceBodies(env.entries, checked)
	if err != nil {
		return nil, err
	}
	var failed int
	if spec.hot {
		failed = checkHot(samples, env.warm, ref)
	} else {
		failed = checkCold(samples, kept, ref)
	}

	var lat, alignLat, simLat []float64
	for _, s := range samples {
		ms := float64(s.lat) * 1e3
		lat = append(lat, ms)
		if strings.HasSuffix(env.entries[s.entry].Path, "/align") {
			alignLat = append(alignLat, ms)
		} else {
			simLat = append(simLat, ms)
		}
	}
	ops := float64(len(samples))
	res := &Result{Correct: failed == 0, Attempted: len(samples), Failed: failed}
	p50 := median(lat)
	echoMs := mean(loop.echo) * 1e3
	if !o.trace {
		// Host speed: the echo's mean round trip against its nominal one.
		// The mean follows the echo's rate, and tracked balignd more
		// closely than the median did. balignd slices make up half the
		// window.
		scale := spec.echoMs / echoMs
		res.Metrics = metricsFor(endToEnd, map[string]float64{
			"setup_s":         median(setup),
			"alloc_mb_per_op": float64(loop.alloc) / 1e6 / ops,
			"goodput_ops":     float64(len(samples)-failed) / (float64(o.seconds) / 2) / scale,
			"p50_ms":          p50 * scale,
			"p90_ms":          quantile(lat, 0.9) * scale,
		})
		return res, nil
	}

	delta := map[string]int64{}
	for k, v := range rep1.Counters {
		delta[k] = v - rep0.Counters[k]
	}
	layers := counterLayers(delta, ops)
	layers["sim.peak_live_bytes"] = float64(rep1.Gauges["sim.stream.peak_live_bytes"])
	layers["serve.admission_wait_ms"] = float64(delta["serve.admission.wait_ns"]) / 1e6 / ops
	layers["serve.rejected"] = float64(delta["serve.admission.rejected"])
	if lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses); lookups > 0 {
		layers["serve.cache_hit_ratio"] = float64(cache1.Hits-cache0.Hits) / float64(lookups)
	}
	layers["serve.cache_evictions"] = float64(cache1.Evictions - cache0.Evictions)
	layers["serve.align_p50_ms"] = quantile(alignLat, 0.5)
	layers["serve.align_p99_ms"] = quantile(alignLat, 0.99)
	layers["serve.simulate_p50_ms"] = quantile(simLat, 0.5)
	layers["serve.simulate_p90_ms"] = quantile(simLat, 0.9)
	layers["max_rss_mb"] = maxRSSMB()

	keyUs, err := timeKeys(env.entries, checked)
	if err != nil {
		return nil, err
	}
	layers["serve.key_us"] = keyUs
	// Handler time without the network: cache hits on the daemon itself
	// for the hot workload, misses on the reference server for the cold.
	handler := refDurs
	if spec.hot {
		handler = nil
		h := env.d.srv.Handler()
		for r := 0; r < keyReps; r++ {
			for _, e := range checked {
				t0 := time.Now()
				callHandler(h, env.entries[e])
				handler = append(handler, time.Since(t0).Seconds())
			}
		}
	}
	layers["serve.handler_us"] = median(handler) * 1e6
	layers["serve.transport_us"] = p50*1e3 - layers["serve.handler_us"]
	layers["host.ref_mean_ms"] = echoMs
	res.Metrics = metricsFor(perLayer, layers)
	return res, nil
}

// timeKeys returns the median time of serve.RequestKey per body, in
// microseconds, over keyReps passes of the listed entries.
func timeKeys(entries []load.Entry, idx []int) (float64, error) {
	var durs []float64
	for r := 0; r < keyReps; r++ {
		for _, e := range idx {
			t0 := time.Now()
			if _, err := serve.RequestKey(entries[e].Path, entries[e].Body); err != nil {
				return 0, err
			}
			durs = append(durs, time.Since(t0).Seconds())
		}
	}
	return median(durs) * 1e6, nil
}
