package load

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// slotCounts sets one slot's counters: the requests it sent, how many
// succeeded, and the offset of its last completion from the run's start.
func slotCounts(sa *slotAgg, sent, ok uint64, lastEnd time.Duration) {
	sa.sent.Store(sent)
	sa.ok.Store(ok)
	sa.errs.Store(sent - ok)
	sa.lastEnd.Store(uint64(lastEnd))
	sa.totalLat.Store(sent * uint64(time.Millisecond))
}

// TestBuildReportRates pins the report's rate arithmetic. A slot's achieved
// rate is completion-based: its requests over the span from its nominal
// start to its last completion, or to its nominal end if every request
// finished inside it. The overall achieved rate is requests over the wall
// duration, and the target rate is the schedule's arrivals over its length.
func TestBuildReportRates(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name       string
		slots      []Slot
		sent       []uint64
		lastEnd    []time.Duration
		wall       time.Duration
		wantSlots  []float64
		wantRPS    float64
		wantTarget float64
	}{
		{
			name:       "below saturation every slot finishes inside itself",
			slots:      []Slot{{Dur: time.Second, RPS: 100}, {Dur: time.Second, RPS: 200}},
			sent:       []uint64{100, 200},
			lastEnd:    []time.Duration{990 * ms, 1995 * ms},
			wall:       2 * time.Second,
			wantSlots:  []float64{100, 200},
			wantRPS:    150,
			wantTarget: 150,
		},
		{
			name:       "past saturation the last completions land late",
			slots:      []Slot{{Dur: time.Second, RPS: 100}, {Dur: time.Second, RPS: 400}},
			sent:       []uint64{100, 400},
			lastEnd:    []time.Duration{1250 * ms, 2600 * ms},
			wall:       2600 * ms,
			wantSlots:  []float64{80, 250},
			wantRPS:    192.31,
			wantTarget: 250,
		},
		{
			name:       "an idle slot reports zero",
			slots:      []Slot{{Dur: 500 * ms, RPS: 0}, {Dur: 500 * ms, RPS: 10}},
			sent:       []uint64{0, 5},
			lastEnd:    []time.Duration{0, 900 * ms},
			wall:       time.Second,
			wantSlots:  []float64{0, 10},
			wantRPS:    5,
			wantTarget: 5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := Schedule{Kind: "test", Slots: tc.slots}
			slots := make([]slotAgg, len(tc.slots))
			var sent uint64
			for i := range slots {
				slotCounts(&slots[i], tc.sent[i], tc.sent[i], tc.lastEnd[i])
				sent += tc.sent[i]
			}
			cfg := RunConfig{Schedule: sched, Corpus: &Corpus{Entries: make([]Entry, 1)}}
			r := buildReport(cfg, 1, sched.arrivals(), slots, nil, reportTotals{
				overall: &Hist{}, sent: sent, ok: sent, wallDur: tc.wall,
			})
			for i, want := range tc.wantSlots {
				if got := r.Slots[i].AchievedRPS; got != want {
					t.Errorf("slot %d achieved %.2f rps, want %.2f", i, got, want)
				}
			}
			if r.AchievedRPS != tc.wantRPS || r.TargetRPS != tc.wantTarget {
				t.Errorf("achieved %.2f target %.2f rps, want %.2f and %.2f",
					r.AchievedRPS, r.TargetRPS, tc.wantRPS, tc.wantTarget)
			}
			if r.WallDurNs != int64(tc.wall) {
				t.Errorf("wall duration %d ns, want %d", r.WallDurNs, tc.wall)
			}
		})
	}
}

// TestBuildReportErrors pins the error buckets: each cause lands in its
// own field, and only 500-class statuses other than 503/504, transport
// failures and deadlines are unexpected.
func TestBuildReportErrors(t *testing.T) {
	sched := Constant(10, time.Second)
	cfg := RunConfig{Schedule: sched, Corpus: &Corpus{Entries: make([]Entry, 1)}}
	for _, tc := range []struct {
		name           string
		totals         reportTotals
		wantUnexpected uint64
	}{
		{"backpressure only", reportTotals{s429: 3, s503: 2, s504: 1}, 0},
		{"one of each", reportTotals{s429: 1, s503: 1, s504: 1, badStatus: 1, transport: 1, deadline: 1}, 3},
		{"transport and deadlines", reportTotals{transport: 2, deadline: 5}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tt := tc.totals
			tt.overall = &Hist{}
			r := buildReport(cfg, 1, sched.arrivals(), make([]slotAgg, 1), nil, tt)
			want := ErrorBreakdown{Status429: tt.s429, Status503: tt.s503, Status504: tt.s504,
				BadStatus: tt.badStatus, Transport: tt.transport, Deadline: tt.deadline}
			if r.Errors != want {
				t.Errorf("errors = %+v, want %+v", r.Errors, want)
			}
			if r.UnexpectedErrors != tc.wantUnexpected {
				t.Errorf("unexpected errors = %d, want %d", r.UnexpectedErrors, tc.wantUnexpected)
			}
		})
	}
}

// goldenReport builds a report from fixed counters: a three-slot ramp whose
// last slot saturates, two request kinds (a third sent nothing and is
// left out), and every error bucket.
func goldenReport() *Report {
	ms := time.Millisecond
	sched := Ramp(100, 400, 3, 500*ms)
	slots := make([]slotAgg, len(sched.Slots))
	slotCounts(&slots[0], 50, 49, 480*ms)
	slotCounts(&slots[1], 125, 123, 1010*ms)
	slotCounts(&slots[2], 200, 190, 1800*ms)
	kinds := map[string]*kindAgg{KindAlignAsm: {}, KindSimInline: {}, KindSimSuite: {}}
	var overall Hist
	for i := 0; i < 375; i++ {
		k, lat := kinds[KindAlignAsm], time.Duration(200+i)*time.Microsecond
		if i%3 == 2 {
			k, lat = kinds[KindSimInline], time.Duration(2+i%7)*ms
		}
		k.sent.Add(1)
		if i >= 20 && i%3 != 2 {
			k.hits.Add(1)
		}
		k.hist.Observe(lat)
		overall.Observe(lat)
	}
	cfg := RunConfig{Schedule: sched, Corpus: &Corpus{Entries: make([]Entry, 6)}, Workers: 8}
	r := buildReport(cfg, 42, sched.arrivals(), slots, kinds, reportTotals{
		overall: &overall, sent: 375, ok: 362, cacheHits: 236,
		s429: 5, s503: 3, s504: 2, badStatus: 1, transport: 1, deadline: 1,
		latenessNs: 123_456_789, wallDur: 1800 * ms,
	})
	r.Host = &Host{GOOS: "linux", GOARCH: "amd64", CPUs: 2, GoVer: "go1.24.0"}
	return r
}

// TestBuildReportGolden pins the report's JSON bytes for fixed counters, so
// a change to the schema or to its arithmetic fails here. Refresh
// deliberately with: go test ./internal/load -run BuildReportGolden -update
func TestBuildReportGolden(t *testing.T) {
	got, err := goldenReport().JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.golden.json")
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
		t.Errorf("report differs from golden (run with -update after intended changes)\n got: %s\nwant: %s", got, want)
	}
}
