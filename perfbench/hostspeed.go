package main

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host is a VM whose speed drifts with its neighbours' load, by more
// than any useful regression bound over a few minutes. Each workload
// therefore also times a reference that runs only this package's code and
// the standard library, so a change to balign cannot move it, and scales
// its times by the reference's nominal time over its measured one. The
// serve workloads alternate their window with an echo server; the suites
// time fixedCompute before and after every grid.

// newEcho starts the echo server on 127.0.0.1:0: it reads the request
// body and writes it back, after running fixedCompute when compute is set.
func newEcho(compute bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if compute {
			fixedCompute()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
}

// computeInts is fixedCompute's fixed input.
var computeInts = func() []int {
	x := make([]int, 20000)
	for i := range x {
		x[i] = int(mix64(uint64(i)) % 1000003)
	}
	return x
}()

// computeSink keeps fixedCompute's result live.
var computeSink atomic.Uint32

// fixedCompute is a fixed unit of computation, about 2 ms on one core of
// the host the bounds were set on: sort a copy of computeInts, fill a map,
// encode and hash a prefix.
func fixedCompute() {
	y := append([]int(nil), computeInts...)
	sort.Ints(y)
	m := make(map[int]int, 512)
	for i := 0; i < 4096; i++ {
		m[y[i*3]%997] += i
	}
	b, _ := json.Marshal(y[:2000])
	sum := sha256.Sum256(b)
	computeSink.Add(uint32(sum[0]) + uint32(len(m)))
}

// computeMs is computeMean's result, in milliseconds, on the host the
// bounds were set on (2 vCPUs, see README.md). Suite grid times are scaled
// to it.
const computeMs = 2.5

// computeMean runs fixedCompute on clients goroutines for about d and
// returns the mean time of one unit in seconds.
func computeMean(d time.Duration) float64 {
	durs := make([][]float64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range durs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < d {
				t0 := time.Now()
				fixedCompute()
				durs[w] = append(durs[w], time.Since(t0).Seconds())
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for _, d := range durs {
		all = append(all, d...)
	}
	return mean(all)
}
