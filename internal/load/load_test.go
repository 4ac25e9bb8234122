package load

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"balign/internal/serve"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestHistBucketsRoundTrip(t *testing.T) {
	for _, ns := range []int64{0, 1, 15, 16, 17, 255, 1000, 123456, 1e6, 987654321, 1e12} {
		idx := bucketOf(ns)
		upper := bucketUpper(idx)
		if upper < ns {
			t.Errorf("bucketUpper(bucketOf(%d)) = %d, below the value", ns, upper)
		}
		if ns >= histExactMax {
			if float64(upper) > float64(ns)*1.07+1 {
				t.Errorf("bucket upper %d overshoots %d by more than ~7%%", upper, ns)
			}
		} else if upper != ns {
			t.Errorf("exact range: bucketUpper(bucketOf(%d)) = %d, want exact", ns, upper)
		}
	}
	// Bucket uppers must be strictly increasing, or quantiles would be
	// non-monotone.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		u := bucketUpper(i)
		if u <= prev {
			t.Fatalf("bucketUpper(%d)=%d not greater than bucketUpper(%d)=%d", i, u, i-1, prev)
		}
		prev = u
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("Count = %d, want 1000", got)
	}
	p50 := h.QuantileNs(50, 100)
	if p50 < 450_000 || p50 > 560_000 {
		t.Errorf("p50 = %dns, want ≈500µs (log-bucket resolution)", p50)
	}
	p999 := h.QuantileNs(999, 1000)
	if p999 < 990_000 || p999 > int64(1_000_000) {
		t.Errorf("p999 = %dns, want ≈999µs capped at exact max", p999)
	}
	if max := h.MaxNs(); max != 1_000_000 {
		t.Errorf("MaxNs = %d, want exactly 1ms", max)
	}
}

func TestScheduleArrivals(t *testing.T) {
	s := Constant(100, 2*time.Second)
	arr := s.arrivals()
	if len(arr) != 200 {
		t.Fatalf("constant 100rps x 2s: %d arrivals, want 200", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].at < arr[i-1].at {
			t.Fatal("arrivals not time-ordered")
		}
	}
	sweep := Sweep(10, 10, 40, time.Second)
	if len(sweep.Slots) != 4 {
		t.Fatalf("sweep 10..40 step 10: %d slots, want 4", len(sweep.Slots))
	}
	if err := (Schedule{}).Validate(); err == nil {
		t.Error("empty schedule validated")
	}
	if err := Constant(-1, time.Second).Validate(); err == nil {
		t.Error("negative rps validated")
	}
	if _, err := ParseSchedule("nope", 10, 0, 0, time.Second, time.Second); err == nil {
		t.Error("unknown schedule kind parsed")
	}
}

func TestMixSequenceInterleaves(t *testing.T) {
	seq, err := mixSequence(DefaultMix(), 10)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, k := range seq {
		kinds[k] = true
	}
	// Any 10-entry prefix of the default mix must already carry most kinds
	// — the property that keeps small corpora representative.
	if len(kinds) < 4 {
		t.Errorf("10-entry prefix covers %d kinds (%v), want >=4", len(kinds), seq)
	}
}

func TestCorpusDeterministicAndParseable(t *testing.T) {
	c1, err := BuildCorpus(7, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := BuildCorpus(7, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Entries) != 10 {
		t.Fatalf("corpus size %d, want 10", len(c1.Entries))
	}
	keys := map[string]bool{}
	for i := range c1.Entries {
		a, b := c1.Entries[i], c2.Entries[i]
		if !bytes.Equal(a.Body, b.Body) || a.Key != b.Key || a.Kind != b.Kind {
			t.Fatalf("entry %d differs across identical builds", i)
		}
		// BuildCorpus already validated the body through serve.RequestKey;
		// re-derive to pin the key contract.
		key, err := serve.RequestKey(a.Path, a.Body)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if key != a.Key {
			t.Fatalf("entry %d: stored key %s != derived %s", i, a.Key, key)
		}
		keys[key] = true
	}
	if len(keys) != 10 {
		t.Errorf("only %d distinct cache keys across 10 entries", len(keys))
	}
}

// virtualRun executes the fixed oracle workload and returns the report
// bytes. Everything is pinned: seed, corpus, schedule, workers, error
// injection.
func virtualRun(t *testing.T) []byte {
	t.Helper()
	corpus, err := BuildCorpus(1234, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := Ramp(50, 200, 4, 500*time.Millisecond)
	rep, err := Run(context.Background(), RunConfig{
		Schedule: sched,
		Corpus:   corpus,
		Doer:     &FakeDoer{Seed: 1234, ErrEvery: 50},
		Clocks:   NewVirtualClocks(),
		Workers:  8,
		Seed:     1234,
		Virtual:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVirtualReportDeterministic is the load-report oracle: the same seed
// must produce byte-identical report JSON across repeated runs and across
// GOMAXPROCS settings — scheduling interleavings must not leak into the
// report.
func TestVirtualReportDeterministic(t *testing.T) {
	base := virtualRun(t)
	if again := virtualRun(t); !bytes.Equal(base, again) {
		t.Fatal("two identical virtual runs produced different report bytes")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := virtualRun(t); !bytes.Equal(base, got) {
			t.Errorf("GOMAXPROCS=%d changed the report bytes", procs)
		}
	}
}

// TestVirtualReportGolden pins the oracle report against a committed
// fixture, so accidental report-schema or semantics drift fails CI.
// Refresh deliberately with: go test ./internal/load -run Golden -update
func TestVirtualReportGolden(t *testing.T) {
	got := virtualRun(t)
	path := filepath.Join("testdata", "report_virtual.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("virtual report differs from golden (run with -update after intended changes)\n got: %.400s\nwant: %.400s", got, want)
	}
}

// TestVirtualRunAccounting checks the report's integer bookkeeping: every
// request lands in exactly one outcome bucket and the injected 429s are
// classified as expected backpressure, not unexpected errors.
func TestVirtualRunAccounting(t *testing.T) {
	corpus, err := BuildCorpus(5, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), RunConfig{
		Schedule: Constant(100, time.Second),
		Corpus:   corpus,
		Doer:     &FakeDoer{Seed: 5, ErrEvery: 10},
		Clocks:   NewVirtualClocks(),
		Workers:  4,
		Virtual:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 100 {
		t.Fatalf("requests = %d, want 100", rep.Requests)
	}
	if rep.Errors.Status429 != 10 {
		t.Errorf("injected 429s = %d, want 10", rep.Errors.Status429)
	}
	if rep.UnexpectedErrors != 0 {
		t.Errorf("unexpected errors = %d; 429 is backpressure, not failure", rep.UnexpectedErrors)
	}
	if rep.OK+rep.Errors.Status429 != rep.Requests {
		t.Errorf("ok %d + 429 %d != requests %d", rep.OK, rep.Errors.Status429, rep.Requests)
	}
	if rep.Host != nil || rep.WallDurNs != 0 {
		t.Error("virtual report leaked host/wall fields")
	}
	var slotTotal uint64
	for _, s := range rep.Slots {
		slotTotal += s.Requests
	}
	if slotTotal != rep.Requests {
		t.Errorf("slot totals %d != requests %d", slotTotal, rep.Requests)
	}
	var kindTotal uint64
	for _, k := range rep.Kinds {
		kindTotal += k.Requests
	}
	if kindTotal != rep.Requests {
		t.Errorf("kind totals %d != requests %d", kindTotal, rep.Requests)
	}
}

// TestRunRealModeAgainstServer drives the real HTTP path against a live
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
		Clocks:   NewWallClocks(),
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
		t.Error("real-mode report missing host block")
	}
	if rep.Mode != "real" {
		t.Errorf("mode = %q, want real", rep.Mode)
	}
}
