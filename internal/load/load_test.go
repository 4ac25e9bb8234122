package load

import (
	"bytes"
	"flag"
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
