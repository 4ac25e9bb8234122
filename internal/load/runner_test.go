package load

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"balign/internal/serve"
)

// fakeFailures are the non-200 outcomes fakeDoer injects, in turn.
var fakeFailures = []Outcome{
	{Status: http.StatusTooManyRequests},
	{Status: http.StatusServiceUnavailable},
	{Status: http.StatusGatewayTimeout},
	{Status: http.StatusInternalServerError},
	{Err: errors.New("connection reset")},
	{Err: context.DeadlineExceeded},
}

// fakeDoer is a deterministic transport: each outcome is a pure function of
// the request index and the plan's cache-hit flag for it. It answers at
// once and reports its latency instead of spending it, so the run paces on
// the wall clock while its counts and histograms stay fixed.
type fakeDoer struct {
	hits     []bool // Corpus.Plan's hit flags for the run's requests
	errEvery int    // one of fakeFailures per errEvery requests (0: none)
}

func (d *fakeDoer) Do(_ context.Context, idx int, _ Entry) Outcome {
	lat := time.Duration(100_000 + splitmix64(uint64(idx))%900_000)
	if d.errEvery > 0 && idx%d.errEvery == d.errEvery-1 {
		out := fakeFailures[idx/d.errEvery%len(fakeFailures)]
		out.Latency = lat
		return out
	}
	return Outcome{Status: http.StatusOK, CacheHit: d.hits[idx], Latency: lat}
}

// planHits returns the cache-hit flags of a run of sched over c at c's seed.
func planHits(c *Corpus, sched Schedule) []bool {
	_, hits := c.Plan(len(sched.arrivals()))
	return hits
}

// fakeRun runs a fixed 120-request ramp over four 60 ms slots through
// fakeDoer.
func fakeRun(t *testing.T) *Report {
	t.Helper()
	corpus, err := BuildCorpus(1234, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := Ramp(200, 800, 4, 60*time.Millisecond)
	rep, err := Run(context.Background(), RunConfig{
		Schedule: sched,
		Corpus:   corpus,
		Doer:     &fakeDoer{hits: planHits(corpus, sched), errEvery: 10},
		Workers:  8,
		Seed:     1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// outcomeBytes renders the parts of a report that depend only on the
// requests' outcomes: all of it but the wall-clock rates, the lateness,
// the wall duration and the host.
func outcomeBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	c := *r
	c.AchievedRPS, c.LatenessNs, c.WallDurNs, c.Host = 0, 0, 0, nil
	c.Slots = slices.Clone(r.Slots)
	for i := range c.Slots {
		c.Slots[i].AchievedRPS = 0
	}
	b, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunDeterministic is the runner's determinism oracle: with a transport
// whose outcomes depend only on the request index, the request counts, the
// error buckets and every latency histogram are identical across repeated
// runs and GOMAXPROCS settings, so no interleaving of the workers leaks
// into them.
func TestRunDeterministic(t *testing.T) {
	base := outcomeBytes(t, fakeRun(t))
	if again := outcomeBytes(t, fakeRun(t)); !bytes.Equal(base, again) {
		t.Fatalf("two identical runs differ:\n%s\n%s", base, again)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := outcomeBytes(t, fakeRun(t)); !bytes.Equal(base, got) {
			t.Errorf("GOMAXPROCS=%d changed the counts or histograms:\n%s\n%s", procs, base, got)
		}
	}
}

// TestRunAccounting checks the runner's classification: every request lands
// in exactly one outcome bucket, 429/503/504 are backpressure rather than
// unexpected errors, and the slot and kind totals add up to the requests.
func TestRunAccounting(t *testing.T) {
	corpus, err := BuildCorpus(5, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := Constant(400, 250*time.Millisecond)
	hits := planHits(corpus, sched)
	rep, err := Run(context.Background(), RunConfig{
		Schedule: sched,
		Corpus:   corpus,
		Doer:     &fakeDoer{hits: hits, errEvery: 5},
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 100 || rep.OK != 80 {
		t.Fatalf("requests %d ok %d, want 100 and 80", rep.Requests, rep.OK)
	}
	// Requests 4, 9, …, 99 fail, cycling through the six fakeFailures.
	want := ErrorBreakdown{Status429: 4, Status503: 4, Status504: 3, BadStatus: 3, Transport: 3, Deadline: 3}
	if rep.Errors != want {
		t.Errorf("errors = %+v, want %+v", rep.Errors, want)
	}
	if rep.UnexpectedErrors != 9 {
		t.Errorf("unexpected errors = %d, want 9 (500, transport and deadline)", rep.UnexpectedErrors)
	}
	var wantHits uint64
	for i, h := range hits {
		if h && i%5 != 4 {
			wantHits++
		}
	}
	if rep.CacheHits != wantHits || wantHits == 0 {
		t.Errorf("cache hits = %d, want %d (> 0)", rep.CacheHits, wantHits)
	}
	var slotTotal, slotOK, slotErrs uint64
	for _, s := range rep.Slots {
		slotTotal += s.Requests
		slotOK += s.OK
		slotErrs += s.Errors
	}
	if slotTotal != rep.Requests || slotOK != rep.OK || slotErrs != rep.Requests-rep.OK {
		t.Errorf("slot totals %d (ok %d, errors %d) do not add up to the report's", slotTotal, slotOK, slotErrs)
	}
	var kindTotal uint64
	for _, k := range rep.Kinds {
		kindTotal += k.Requests
	}
	if kindTotal != rep.Requests {
		t.Errorf("kind totals %d != requests %d", kindTotal, rep.Requests)
	}
	if rep.Host == nil || rep.WallDurNs <= 0 || rep.AchievedRPS <= 0 {
		t.Errorf("report lacks its wall-clock fields: host %v, wall %d ns, achieved %.2f rps",
			rep.Host, rep.WallDurNs, rep.AchievedRPS)
	}
}

// blockingDoer holds every request until the run's context ends, as a
// daemon that never answers would.
type blockingDoer struct{}

func (blockingDoer) Do(ctx context.Context, _ int, _ Entry) Outcome {
	<-ctx.Done()
	return Outcome{Err: ctx.Err()}
}

// TestRunCancel cancels a 10 s schedule after about 200 ms, once with every
// worker inside a request that only the cancellation ends and once with
// the workers pacing between instant answers. Run must return promptly,
// report no request that was not yet due, and leave no goroutine behind.
func TestRunCancel(t *testing.T) {
	corpus, err := BuildCorpus(3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := Constant(100, 10*time.Second)
	arr := sched.arrivals()
	for _, tc := range []struct {
		name string
		doer Doer
	}{
		{"blocking", blockingDoer{}},
		{"answering", &fakeDoer{hits: planHits(corpus, sched)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			start := time.Now()
			time.AfterFunc(200*time.Millisecond, cancel)
			rep, err := Run(ctx, RunConfig{Schedule: sched, Corpus: corpus, Doer: tc.doer, Workers: 4})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed > 2*time.Second {
				t.Errorf("Run returned %v after the start, 200 ms after which it was cancelled", elapsed)
			}
			due := 0
			for _, a := range arr {
				if a.at <= elapsed {
					due++
				}
			}
			if rep.Requests > uint64(due) {
				t.Errorf("reported %d requests, but only %d arrivals were due in %v", rep.Requests, due, elapsed)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines remain after Run, %d before it", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRunRealModeAgainstServer drives the HTTP transport against a live
// serve.Server: requests succeed, repeats hit the cache, and the report
// carries host metadata.
func TestRunRealModeAgainstServer(t *testing.T) {
	srv, err := serve.New(serve.Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	corpus, err := BuildCorpus(9, 4, []MixItem{
		{Kind: KindAlignAsm, Weight: 1},
		{Kind: KindAlignCFGJSON, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), RunConfig{
		Schedule: Constant(60, time.Second),
		Corpus:   corpus,
		Doer:     NewHTTPDoer(ts.URL, 10*time.Second),
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexpectedErrors != 0 {
		t.Fatalf("unexpected errors against live server: %d (%+v)", rep.UnexpectedErrors, rep.Errors)
	}
	if rep.OK != rep.Requests {
		t.Errorf("ok %d != requests %d", rep.OK, rep.Requests)
	}
	if rep.CacheHits == 0 {
		t.Error("60 requests over 4 distinct bodies produced no cache hits")
	}
	if rep.Host == nil || rep.Host.CPUs <= 0 {
		t.Error("report missing host block")
	}
	if rep.WallDurNs < int64(time.Second)*59/60 {
		t.Errorf("wall duration %d ns is shorter than the schedule's last arrival", rep.WallDurNs)
	}
}
