package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"balign/internal/obs"
	"balign/internal/serve/router"
)

// childEnv marks a spawned shard process. The production binary ignores it
// (main always serves); the test binary's TestMain dispatches on it so the
// supervisor can re-exec the test executable as a real shard daemon.
const childEnv = "BALIGND_CHILD"

// shardTuning is the subset of balignd flags the supervisor forwards to
// every shard it spawns.
type shardTuning struct {
	inflight     int
	queueWait    time.Duration
	timeout      time.Duration
	maxBody      int64
	cacheEntries int
	cacheBytes   int64
	kernel       string
	parallel     int
	drain        time.Duration
}

func (t shardTuning) args(addrFile string) []string {
	a := []string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-inflight", fmt.Sprint(t.inflight),
		"-queue-wait", t.queueWait.String(),
		"-timeout", t.timeout.String(),
		"-max-body", fmt.Sprint(t.maxBody),
		"-cache-entries", fmt.Sprint(t.cacheEntries),
		"-cache-bytes", fmt.Sprint(t.cacheBytes),
		"-parallel", fmt.Sprint(t.parallel),
		"-drain", t.drain.String(),
	}
	if t.kernel != "" {
		a = append(a, "-kernel", t.kernel)
	}
	return a
}

// shardProc is one supervised backend process.
type shardProc struct {
	idx      int
	addrFile string
	mu       sync.Mutex
	cmd      *exec.Cmd
	exited   chan struct{} // closed by the monitor after cmd.Wait returns
}

// supervisor runs N shard children plus a router front end in one process
// tree: `balignd -shards N`.
type supervisor struct {
	tuning   shardTuning
	stderr   io.Writer
	dir      string
	exe      string
	shards   []*shardProc
	rt       *router.Router
	stopping atomic.Bool
}

// runSharded is the `-shards N` / `-backends ...` entry point: a router
// listening on addr, backed either by N freshly spawned shard processes or
// by externally managed backends.
func runSharded(addr, addrFile string, shards int, backends []string, tuning shardTuning, rec *obs.Recorder, drain time.Duration, stderr io.Writer) error {
	sup := &supervisor{tuning: tuning, stderr: stderr}
	urls := backends

	if shards > 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("locating own executable: %w", err)
		}
		dir, err := os.MkdirTemp("", "balignd-shards-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		sup.dir, sup.exe = dir, exe

		urls = make([]string, shards)
		for i := 0; i < shards; i++ {
			sp := &shardProc{idx: i, addrFile: filepath.Join(dir, fmt.Sprintf("shard-%d.addr", i))}
			sup.shards = append(sup.shards, sp)
			u, err := sup.start(sp)
			if err != nil {
				sup.killAll()
				return fmt.Errorf("starting shard %d: %w", i, err)
			}
			urls[i] = u
			fmt.Fprintf(stderr, "balignd: shard %d up at %s\n", i, u)
		}
	}

	rt, err := router.New(router.Config{
		Backends: urls,
		Timeout:  tuning.timeout,
		Obs:      rec,
	})
	if err != nil {
		sup.killAll()
		return err
	}
	sup.rt = rt

	// Monitors restart crashed shards and swap the fresh address into the
	// shard's ring slot; key ownership never moves.
	var wg sync.WaitGroup
	for _, sp := range sup.shards {
		wg.Add(1)
		go func(sp *shardProc) {
			defer wg.Done()
			sup.monitor(sp)
		}(sp)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		sup.shutdownChildren(drain)
		wg.Wait()
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			sup.shutdownChildren(drain)
			wg.Wait()
			return err
		}
	}
	fmt.Fprintf(stderr, "balignd: router listening on %s (%d shards)\n", bound, rt.Shards())

	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		sup.stopping.Store(true)
		sup.shutdownChildren(drain)
		wg.Wait()
		return err
	case <-ctx.Done():
	}

	// Drain ordering: stop admitting at the router first, let in-flight
	// forwards finish, then drain the children — so no request is admitted
	// upstream of a shard that is already refusing work.
	fmt.Fprintln(stderr, "balignd: router draining")
	sup.stopping.Store(true)
	rt.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "balignd: router shutdown: %v\n", err)
		hs.Close()
	}
	<-errc
	sup.shutdownChildren(drain)
	wg.Wait()
	return nil
}

// start launches sp's process and waits for it to publish its address.
func (sup *supervisor) start(sp *shardProc) (string, error) {
	os.Remove(sp.addrFile)
	cmd := exec.Command(sup.exe, sup.tuning.args(sp.addrFile)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = sup.stderr
	if err := cmd.Start(); err != nil {
		return "", err
	}
	sp.mu.Lock()
	sp.cmd = cmd
	sp.exited = make(chan struct{})
	sp.mu.Unlock()
	addr, err := waitForAddrFile(sp.addrFile, 10*time.Second)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return "", err
	}
	return "http://" + addr, nil
}

// monitor waits on sp's process and restarts it until shutdown, swapping
// the new address into the router.
func (sup *supervisor) monitor(sp *shardProc) {
	for {
		sp.mu.Lock()
		cmd, exited := sp.cmd, sp.exited
		sp.mu.Unlock()
		err := cmd.Wait()
		close(exited)
		if sup.stopping.Load() {
			return
		}
		fmt.Fprintf(sup.stderr, "balignd: shard %d exited (%v); restarting\n", sp.idx, err)
		time.Sleep(100 * time.Millisecond)
		u, serr := sup.start(sp)
		if serr != nil {
			if sup.stopping.Load() {
				return
			}
			fmt.Fprintf(sup.stderr, "balignd: shard %d restart failed: %v\n", sp.idx, serr)
			time.Sleep(time.Second)
			continue
		}
		if swapErr := sup.rt.SetBackend(sp.idx, u); swapErr != nil {
			fmt.Fprintf(sup.stderr, "balignd: shard %d: %v\n", sp.idx, swapErr)
		}
		fmt.Fprintf(sup.stderr, "balignd: shard %d back at %s\n", sp.idx, u)
	}
}

// shutdownChildren drains every shard: SIGTERM (the daemon's graceful
// path), escalating to SIGKILL after the drain bound.
func (sup *supervisor) shutdownChildren(drain time.Duration) {
	sup.stopping.Store(true)
	var wg sync.WaitGroup
	for _, sp := range sup.shards {
		sp.mu.Lock()
		cmd, exited := sp.cmd, sp.exited
		sp.mu.Unlock()
		if cmd == nil || cmd.Process == nil {
			continue
		}
		wg.Add(1)
		go func(cmd *exec.Cmd, exited chan struct{}) {
			defer wg.Done()
			cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
			case <-time.After(drain + 2*time.Second):
				cmd.Process.Kill()
				<-exited
			}
		}(cmd, exited)
	}
	wg.Wait()
}

// killAll hard-stops every child (startup-failure path).
func (sup *supervisor) killAll() {
	sup.stopping.Store(true)
	for _, sp := range sup.shards {
		sp.mu.Lock()
		cmd := sp.cmd
		sp.mu.Unlock()
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

// waitForAddrFile polls for the "host:port\n" file a booting daemon writes.
func waitForAddrFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		b, err := os.ReadFile(path)
		if err == nil {
			if addr := strings.TrimSpace(string(b)); addr != "" {
				return addr, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("timed out waiting for %s", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// parseBackends reads the -backends flag ("url,url").
func parseBackends(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	var out []string
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, errors.New("empty backend URL in -backends")
		}
		out = append(out, strings.TrimRight(p, "/"))
	}
	return out, nil
}
