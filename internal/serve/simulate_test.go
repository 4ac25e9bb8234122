package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"balign/internal/obs"
	"balign/internal/predict"
)

// simulate posts req to /v1/simulate and decodes the 200 response.
func simulate(t *testing.T, url string, req map[string]any) SimulateResponse {
	t.Helper()
	status, _, body := post(t, url+"/v1/simulate", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// inlineGoldenCases names the two inline golden requests.
func inlineGoldenCases(t *testing.T) []struct {
	name string
	req  map[string]any
} {
	return []struct {
		name string
		req  map[string]any
	}{
		{"vm", simulateInlineVM(t)},
		{"walk", simulateInlineWalk(t)},
	}
}

// TestInlineOrigRowsCPI checks the relative-CPI denominator of both inline
// golden requests: an orig row traces the original program itself, so its
// CPI is (instrs+bep)/instrs exactly.
func TestInlineOrigRowsCPI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range inlineGoldenCases(t) {
		resp := simulate(t, ts.URL, tc.req)
		rows := 0
		for _, sm := range resp.Summaries {
			if sm.Algo != "orig" {
				continue
			}
			rows++
			if want := float64(sm.Instrs+sm.BEP) / float64(sm.Instrs); sm.CPI != want {
				t.Errorf("%s %s/orig: cpi %v over %d instrs and bep %d, want %v",
					tc.name, sm.Arch, sm.CPI, sm.Instrs, sm.BEP, want)
			}
		}
		if rows != len(predict.AllArchs()) {
			t.Errorf("%s: %d orig rows, want one per architecture", tc.name, rows)
		}
	}
}

// TestOneStreamerPerDaemon runs a suite request and then an inline one on
// one server: both broadcast through the server's streamer, so the
// recorder's stream gauges and counters are that streamer's. Its peak never
// falls, and with the grid serial, every broadcast after the daemon's
// first takes its one buffer from the streamer's arena.
func TestOneStreamerPerDaemon(t *testing.T) {
	rec := obs.New("test")
	_, ts := newTestServer(t, Config{Obs: rec, Parallelism: 1})
	var peak int64
	for _, tc := range []struct {
		name string
		req  map[string]any
	}{{"suite", simulateSuite()}, {"inline", simulateInlineVM(t)}} {
		simulate(t, ts.URL, tc.req)
		rep := rec.Report()
		got := rep.Gauges["sim.stream.peak_live_bytes"]
		if got < peak {
			t.Errorf("after the %s request: sim.stream.peak_live_bytes fell from %d to %d", tc.name, peak, got)
		}
		peak = got
		n, reuses := rep.Counters["sim.stream.broadcasts"], rep.Counters["sim.stream.arena_reuses"]
		if n == 0 || reuses != n-1 {
			t.Errorf("after the %s request: %d broadcasts reused %d buffers; want one for each broadcast after the first",
				tc.name, n, reuses)
		}
	}
}

// TestSimulateColumnsAndFold reads the grid's preparation off balignd's
// recorder: a suite request prepares only the variants of its columns, and
// an inline request folds equal variants before it broadcasts. The VM
// request folds one variant more than the walk request, because a VM
// variant folds on its program and branch counts alone.
func TestSimulateColumnsAndFold(t *testing.T) {
	counters := func(req map[string]any) map[string]int64 {
		rec := obs.New("test")
		_, ts := newTestServer(t, Config{Obs: rec})
		simulate(t, ts.URL, req)
		return rec.Report().Counters
	}

	req := simulateSuite()
	req["algos"] = []string{"orig"}
	c := counters(req)
	if c["exp.variants.total"] != 1 {
		t.Errorf("suite orig column: exp.variants.total = %d, want 1", c["exp.variants.total"])
	}
	for name := range c {
		if strings.HasPrefix(name, "core.") {
			t.Errorf("suite orig column ran alignment: counter %s = %d", name, c[name])
		}
	}

	want := map[string]int64{"vm": 4, "walk": 5}
	for _, tc := range inlineGoldenCases(t) {
		c := counters(tc.req)
		total, distinct, broadcasts := c["exp.variants.total"], c["exp.variants.distinct"], c["sim.stream.broadcasts"]
		if total != 16 || distinct != want[tc.name] || broadcasts != want[tc.name] {
			t.Errorf("%s: %d variant keys, %d distinct, %d broadcasts; want 16, %d and %d",
				tc.name, total, distinct, broadcasts, want[tc.name], want[tc.name])
		}
	}
}

// TestSimulateCanonicalAlgoOrder asks both modes for two columns in reverse
// order: rows come back in canonical column order within each
// architecture, and the two orders share one cache key.
func TestSimulateCanonicalAlgoOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		req  map[string]any
	}{{"inline", simulateInlineVM(t)}, {"suite", simulateSuite()}} {
		tc.req["algos"] = []string{"exttsp", "orig"}
		resp := simulate(t, ts.URL, tc.req)
		if len(resp.Summaries) != 2*len(predict.AllArchs()) {
			t.Fatalf("%s: %d rows, want two per architecture", tc.name, len(resp.Summaries))
		}
		for i := 0; i < len(resp.Summaries); i += 2 {
			a, b := resp.Summaries[i], resp.Summaries[i+1]
			if a.Arch != b.Arch || a.Algo != "orig" || b.Algo != "exttsp" {
				t.Errorf("%s: rows %d and %d are %s/%s then %s/%s, want orig then exttsp of one architecture",
					tc.name, i, i+1, a.Arch, a.Algo, b.Arch, b.Algo)
			}
		}
		reversed, err := RequestKey("/v1/simulate", mustJSON(t, tc.req))
		if err != nil {
			t.Fatal(err)
		}
		tc.req["algos"] = []string{"orig", "exttsp"}
		canonical, err := RequestKey("/v1/simulate", mustJSON(t, tc.req))
		if err != nil {
			t.Fatal(err)
		}
		if reversed != canonical {
			t.Errorf("%s: the two column orders have different cache keys", tc.name)
		}
	}
}
