// Command balignd serves the branch-alignment pipeline over HTTP: the
// hardened alignment-as-a-service daemon built on internal/serve.
//
//	POST /v1/align     assemble + align + per-algorithm/per-site cost deltas
//	POST /v1/simulate  align + simulate across architectures (suite or inline)
//	GET  /healthz      liveness (503 while draining)
//	GET  /debug/vars   expvar, including the live balignd telemetry report
//	GET  /debug/pprof  standard Go profiling endpoints
//
// Usage:
//
//	balignd [-addr :8421] [-addr-file path] [-inflight 8] [-queue-wait 250ms]
//	        [-timeout 60s] [-max-body 8388608] [-cache-entries 256]
//	        [-cache-bytes 67108864] [-kernel flat|ref] [-parallel N]
//	        [-drain 30s] [-v]
//
// On SIGINT/SIGTERM the daemon drains gracefully: /healthz flips to 503,
// new work is rejected, in-flight requests run to completion (bounded by
// -drain), then the process exits. With -addr :0 the kernel picks a free
// port; -addr-file publishes the bound address for scripts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"balign/internal/obs"
	"balign/internal/serve"
)

var publishOnce sync.Once

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "balignd:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("balignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8421", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	inflight := fs.Int("inflight", serve.DefaultMaxInFlight, "max concurrently executing requests")
	queueWait := fs.Duration("queue-wait", serve.DefaultQueueWait, "max admission queue wait before 429 (0 = reject immediately)")
	timeout := fs.Duration("timeout", serve.DefaultTimeout, "per-request deadline")
	maxBody := fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size limit in bytes")
	cacheEntries := fs.Int("cache-entries", serve.DefaultCacheEntries, "result cache entry bound (-1 disables the cache)")
	cacheBytes := fs.Int64("cache-bytes", serve.DefaultCacheBytes, "result cache byte bound")
	kernel := fs.String("kernel", "", "simulation executor: flat | ref (default flat)")
	parallel := fs.Int("parallel", 0, "per-request experiment-engine shards (0 = GOMAXPROCS)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown bound for in-flight work")
	verbose := fs.Bool("v", false, "write the telemetry report to stderr on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rec := obs.New("balignd")
	// expvar panics on duplicate names; only the first run in a process
	// (the only one outside tests) claims the exported slot.
	publishOnce.Do(func() { rec.Publish("balignd") })

	qw := *queueWait
	if qw == 0 {
		qw = -1 // flag 0 means reject immediately; Config 0 means default
	}
	srv, err := serve.New(serve.Config{
		MaxInFlight:  *inflight,
		QueueWait:    qw,
		Timeout:      *timeout,
		MaxBodyBytes: *maxBody,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		Kernel:       *kernel,
		Parallelism:  *parallel,
		Obs:          rec,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stderr, "balignd: listening on %s\n", bound)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: flip the drain flag first so probes and new work
	// see 503 immediately, then let http.Server wait out the in-flight
	// requests the flag is protecting.
	fmt.Fprintln(stderr, "balignd: draining")
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "balignd: shutdown: %v\n", err)
		hs.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if *verbose {
		rec.Attach("serve_cache", srv.CacheStats())
		rec.Attach("stream", srv.Streamer().Stats())
		if err := rec.WriteJSON(stderr); err != nil {
			return err
		}
	}
	return nil
}
