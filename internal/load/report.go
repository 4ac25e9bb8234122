package load

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// Report is the JSON document baload emits. All latency fields are
// integer nanoseconds, and every count is an integer sum, so two runs that
// saw the same outcomes report the same counts and histograms.
type Report struct {
	Seed     int64    `json:"seed"`
	Schedule Schedule `json:"schedule"`
	Workers  int      `json:"workers"`
	Corpus   int      `json:"corpus_entries"`

	Requests  uint64 `json:"requests"`
	OK        uint64 `json:"ok"`
	CacheHits uint64 `json:"cache_hits"`

	// Errors splits non-200 outcomes into expected backpressure statuses
	// and genuinely unexpected failures.
	Errors ErrorBreakdown `json:"errors"`
	// UnexpectedErrors is the gate baload -max-unexpected checks: everything
	// that is not 200 and not expected backpressure (429/503/504).
	UnexpectedErrors uint64 `json:"unexpected_errors"`

	// AchievedRPS is requests / wall duration, the number a saturation
	// sweep knees on.
	AchievedRPS float64 `json:"achieved_rps"`
	// TargetRPS is the schedule's request count over its nominal duration.
	TargetRPS float64 `json:"target_rps"`
	// LatenessNs is total time requests were issued after their scheduled
	// arrival — the closed-loop congestion signal.
	LatenessNs uint64 `json:"lateness_ns"`

	Latency LatencySummary         `json:"latency"`
	Kinds   map[string]*KindReport `json:"kinds"`
	Slots   []SlotReport           `json:"slots"`

	// WallDurNs is the run's wall time; Host is the machine it ran on.
	WallDurNs int64 `json:"wall_dur_ns"`
	Host      *Host `json:"host"`
}

// ErrorBreakdown buckets failures by cause.
type ErrorBreakdown struct {
	Status429 uint64 `json:"status_429"`
	Status503 uint64 `json:"status_503"`
	Status504 uint64 `json:"status_504"`
	BadStatus uint64 `json:"bad_status"`
	Transport uint64 `json:"transport"`
	Deadline  uint64 `json:"deadline"`
}

// KindReport is one request kind's slice of the run.
type KindReport struct {
	Requests  uint64         `json:"requests"`
	CacheHits uint64         `json:"cache_hits"`
	Latency   LatencySummary `json:"latency"`
}

// SlotReport is one schedule slot's achieved-vs-target view.
type SlotReport struct {
	TargetRPS   float64 `json:"target_rps"`
	Requests    uint64  `json:"requests"`
	OK          uint64  `json:"ok"`
	Errors      uint64  `json:"errors"`
	AchievedRPS float64 `json:"achieved_rps"`
	MeanLatNs   int64   `json:"mean_lat_ns"`
}

// Host describes the machine a run executed on.
type Host struct {
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	CPUs     int    `json:"cpus"`
	GoVer    string `json:"go"`
	Hostname string `json:"hostname,omitempty"`
}

// reportTotals carries the runner's overall counters into buildReport.
type reportTotals struct {
	overall    *Hist
	sent, ok   uint64
	cacheHits  uint64
	s429, s503 uint64
	s504       uint64
	badStatus  uint64
	transport  uint64
	deadline   uint64
	latenessNs uint64
	wallDur    time.Duration
}

// thisHost describes the machine running this process.
func thisHost() *Host {
	host := &Host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(), GoVer: runtime.Version()}
	if hn, err := os.Hostname(); err == nil {
		host.Hostname = hn
	}
	return host
}

// buildReport folds the runner's counters into a Report. It is a pure
// function of its arguments; Run adds the Host block.
func buildReport(cfg RunConfig, seed int64, arr []arrival, slots []slotAgg, kinds map[string]*kindAgg, t reportTotals) *Report {
	r := &Report{
		Seed:      seed,
		Schedule:  cfg.Schedule,
		Workers:   cfg.Workers,
		Corpus:    len(cfg.Corpus.Entries),
		Requests:  t.sent,
		OK:        t.ok,
		CacheHits: t.cacheHits,
		Errors: ErrorBreakdown{
			Status429: t.s429, Status503: t.s503, Status504: t.s504,
			BadStatus: t.badStatus, Transport: t.transport, Deadline: t.deadline,
		},
		UnexpectedErrors: t.badStatus + t.transport + t.deadline,
		LatenessNs:       t.latenessNs,
		WallDurNs:        int64(t.wallDur),
		Latency:          t.overall.Summary(),
		Kinds:            map[string]*KindReport{},
	}
	nominal := cfg.Schedule.Duration()
	if nominal > 0 {
		r.TargetRPS = round2(float64(len(arr)) / nominal.Seconds())
	}
	if t.wallDur > 0 {
		r.AchievedRPS = round2(float64(t.sent) / t.wallDur.Seconds())
	}

	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ka := kinds[k]
		if ka.sent.Load() == 0 {
			continue
		}
		r.Kinds[k] = &KindReport{
			Requests:  ka.sent.Load(),
			CacheHits: ka.hits.Load(),
			Latency:   ka.hist.Summary(),
		}
	}

	r.Slots = make([]SlotReport, len(slots))
	var slotStartNs int64
	for i := range slots {
		sa := &slots[i]
		sr := SlotReport{
			TargetRPS: round2(cfg.Schedule.Slots[i].RPS),
			Requests:  sa.sent.Load(),
			OK:        sa.ok.Load(),
			Errors:    sa.errs.Load(),
		}
		// Achieved rate is completion-based: requests divided by the time
		// from the slot's nominal start to its last completion. Below
		// saturation that elapsed time is the slot duration and achieved
		// tracks target; past saturation the closed loop falls behind, the
		// last completion lands after the slot boundary, and achieved drops
		// below target — dividing by the nominal duration instead would
		// report achieved == target for any run that eventually finishes.
		if d := cfg.Schedule.Slots[i].Dur; d > 0 {
			elapsed := d
			if end := int64(sa.lastEnd.Load()); end > slotStartNs+int64(d) {
				elapsed = time.Duration(end - slotStartNs)
			}
			sr.AchievedRPS = round2(float64(sr.Requests) / elapsed.Seconds())
			slotStartNs += int64(d)
		}
		if sr.Requests > 0 {
			sr.MeanLatNs = int64(sa.totalLat.Load() / sr.Requests)
		}
		r.Slots[i] = sr
	}
	return r
}

// round2 keeps rates to two decimals so report bytes don't wobble on float
// formatting of long fractions.
func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}

// JSON renders the report with stable formatting (two-space indent,
// trailing newline).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
