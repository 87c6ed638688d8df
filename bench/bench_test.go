package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinySize is every workload shrunk until a rep takes milliseconds; the
// smoke tests check that the checks fire, not how fast anything is.
func tinySize() sizing {
	return sizing{
		W:         2,
		SimStride: 1, SimVideos: 2, SimTraces: 2,
		WireSessions: 6, WireSegments: 3,
		FleetSessions: 4, ChaosSessions: 8, Excerpt: 6,
	}
}

func afterReps(n int) stop {
	return func(w *window, _ time.Duration) bool { return w.Reps >= n }
}

// --- estimators ---

func TestMedianIgnoresHiccupReps(t *testing.T) {
	// One 22 s fleet window: a neighbour's burst slowed the last three reps.
	reps := []float64{2000, 1889, 2085, 2296, 2105, 2075, 2070, 664, 603, 870}
	if got := median(reps); got != 2035 {
		t.Fatalf("median = %v, want 2035", got)
	}
	var sum float64
	for _, r := range reps {
		sum += r
	}
	if mean := sum / float64(len(reps)); mean > 0.85*2035 {
		t.Fatalf("the example no longer shows what total/total would have read: mean %v", mean)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestSupportedQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []uint64{5, 19, 20, 150, 200, 999, 1000, 12096, 1 << 20} {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			got := supportedQuantile(q, n)
			if got > q || got < 0.5 {
				t.Fatalf("supportedQuantile(%v, %d) = %v outside [0.5, q]", q, n, got)
			}
			if beyond := float64(n) * (1 - got); got > 0.5 && beyond < tailSupport-1e-9 {
				t.Fatalf("supportedQuantile(%v, %d) = %v leaves %.1f samples beyond", q, n, got, beyond)
			}
		}
	}
	if got := supportedQuantile(0.95, 12096); got != 0.95 {
		t.Fatalf("an origin_wire rep (600 samples beyond p95) must keep p95, got %v", got)
	}
	if got := supportedQuantile(0.99, 300); got >= 0.99 {
		t.Fatalf("p99 of 300 samples has 3 beyond it and must be lowered, got %v", got)
	}
}

func TestHistBucketErrorWithinOnePercent(t *testing.T) {
	for v := int64(1); v < 1<<39; v = v*21/20 + 1 {
		var h hist
		h.add(v)
		got := h.quantile(0.5)
		if err := math.Abs(got-float64(v)) / float64(v); err > 0.01 {
			t.Fatalf("sample %d reads %v: error %.4f > 1 %%", v, got, err)
		}
	}
	// A spread-out distribution: every decile within 1 % of the exact one.
	var h hist
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.add(int64(i) * 37)
	}
	for q := 0.1; q < 1; q += 0.1 {
		want := q * n * 37
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Fatalf("quantile(%.1f) = %v, want %v within 1 %%", q, got, want)
		}
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if a, b := merged.quantile(0.5), h.quantile(0.5); merged.n != 2*h.n || math.Abs(a-b)/b > 1e-3 {
		t.Fatalf("merging a histogram with itself moved its median from %v to %v", b, a)
	}
}

// --- workloads ---

func TestWorkloadSmoke(t *testing.T) {
	in := newInputs(1, tinySize())
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := wl.setup(in); err != nil {
				t.Fatal(err)
			}
			defer wl.close()
			if err := warmUp(wl, 1); err != nil {
				t.Fatal(err)
			}
			w, err := measure(wl, afterReps(3), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Problems) != 0 || w.Failed != 0 {
				t.Fatalf("problems %v, %d of %d failed", w.Problems, w.Failed, w.Attempted)
			}
			if w.Reps != 3 || w.Segments <= 0 || w.Attempted <= 0 || w.P50Us[0] <= 0 {
				t.Fatalf("window %+v recorded no work", w)
			}
			res := runResult{Workload: name, Attempted: w.Attempted, Metrics: w.endToEndMetrics()}
			res.Metrics["setup_s"], res.Metrics["peak_rss_mb"] = 1, 1 // the parent's to measure
			if err := res.check(); err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}

func TestSeedChangesInputsAndOnlySeed(t *testing.T) {
	a, b, c := newInputs(1, tinySize()), newInputs(1, tinySize()), newInputs(2, tinySize())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.traces, c.traces) || a.chaosSeed == c.chaosSeed || a.mixSeed == c.mixSeed {
		t.Fatal("a different seed gave the same inputs")
	}
}

// TestCorruptedCountsFail: every workload's correctness check must turn a
// wrong count into a problem, and a problem into a failed run.
func TestCorruptedCountsFail(t *testing.T) {
	in := newInputs(1, tinySize())

	t.Run("origin_wire ledger", func(t *testing.T) {
		ow := &originWire{}
		if err := ow.setup(in); err != nil {
			t.Fatal(err)
		}
		defer ow.close()
		ow.served.SegmentsServed-- // as if a segment had been served and not read
		r, err := ow.rep()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Problems) == 0 {
			t.Fatal("a segment the clients never read went unnoticed")
		}
	})

	t.Run("sim_plan digest", func(t *testing.T) {
		s := &simPlan{}
		if err := s.setup(in); err != nil {
			t.Fatal(err)
		}
		reps := 0
		flaky := &tamper{workload: s, after: func() {
			if reps++; reps == 2 {
				s.cells[0], s.cells[1] = s.cells[1], s.cells[0] // another plan for cell 0
			}
		}}
		w, err := measure(flaky, afterReps(3), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Problems) == 0 {
			t.Fatal("reps with different rung sequences went unnoticed")
		}
	})

	t.Run("fleet_vclock bytes", func(t *testing.T) {
		f := &fleetLoad{}
		if err := f.setup(in); err != nil {
			t.Fatal(err)
		}
		reps := 0
		flaky := &tamper{workload: f, after: func() {
			if reps++; reps == 1 {
				f.in = newInputs(2, tinySize()) // other traces: other bytes
				f.traces = f.in.fleetTraces()
			}
		}}
		w, err := measure(flaky, afterReps(2), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Problems) == 0 {
			t.Fatal("reps that moved different bytes went unnoticed")
		}
	})

	t.Run("run verdict", func(t *testing.T) {
		ok := runResult{Workload: wlSimPlan, Attempted: 10, Metrics: map[string]float64{}}
		for _, d := range endToEnd {
			ok.Metrics[d.Name] = 1
		}
		if err := ok.check(); err != nil {
			t.Fatalf("a clean run failed: %v", err)
		}
		bad := ok
		bad.Problems = []string{"origin served 5 segments, clients read 4"}
		if bad.check() == nil {
			t.Fatal("a run with a correctness problem passed")
		}
		bad = ok
		bad.Failed = 1
		if bad.check() == nil {
			t.Fatal("a run with a failed operation passed")
		}
		bad = ok
		bad.Metrics = map[string]float64{"setup_s": 1}
		if bad.check() == nil {
			t.Fatal("a run missing metrics passed")
		}
	})
}

// tamper runs a hook after every rep of the wrapped workload.
type tamper struct {
	workload
	after func()
}

func (t *tamper) rep() (repStats, error) {
	r, err := t.workload.rep()
	t.after()
	return r, err
}

// --- traced pass ---

func TestTracedSmoke(t *testing.T) {
	in := newInputs(1, tinySize())
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := wl.setup(in); err != nil {
				t.Fatal(err)
			}
			untraced, err := measure(wl, afterReps(2), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := wl.close(); err != nil {
				t.Fatal(err)
			}

			tr := newTracer()
			twl, err := newTracedWorkload(name, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := twl.setup(in); err != nil {
				t.Fatal(err)
			}
			defer twl.close()
			tw, err := measureTraced(twl, tr, in.size.W, afterReps(2))
			if err != nil {
				t.Fatal(err)
			}
			if len(tw.Problems) != 0 || tw.Failed != 0 {
				t.Fatalf("problems %v, %d failed", tw.Problems, tw.Failed)
			}
			if name != wlFleetChaos && tw.Digest != untraced.Digest {
				t.Fatalf("traced pass produced digest %016x, untraced %016x: the traced driver is not doing the same work", tw.Digest, untraced.Digest)
			}
			m, err := layerMetrics(tw, tr, untraced, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := runResult{Workload: name, Traced: true, Attempted: tw.Attempted, Metrics: m}
			if err := res.check(); err != nil {
				t.Fatal(err)
			}
			if share := m["trace.layer_sum_share"]; !(share > 0) {
				t.Errorf("trace.layer_sum_share = %v, want > 0", share)
			}

			// The bypass predictions: a layer a workload bypasses records
			// nothing on it.
			zero := map[string][]string{
				wlSimPlan:     {"dash.requests_per_segment", "origin.serve_self_us_per_request", "vclock.sleeps_per_segment", "qlog.events_per_segment"},
				wlOriginWire:  {"abr.decide_calls_per_segment", "player.self_us_per_segment", "dash.stream_self_us_per_segment", "qlog.events_per_segment"},
				wlFleetVclock: {"qlog.events_per_segment", "chaos.faults_per_segment", "ingest.ratings_per_segment", "player.self_us_per_segment"},
				wlFleetChaos:  {"player.self_us_per_segment", "qlog.ring_drops"},
			}
			positive := map[string][]string{
				wlSimPlan:     {"abr.decide_calls_per_segment", "player.self_us_per_segment"},
				wlOriginWire:  {"dash.requests_per_segment", "http.self_us_per_request", "origin.serve_self_us_per_request"},
				wlFleetVclock: {"abr.decide_calls_per_segment", "dash.stream_self_us_per_segment", "http.self_us_per_request", "origin.serve_self_us_per_request", "vclock.sleeps_per_segment"},
				wlFleetChaos:  {"qlog.events_per_segment", "chaos.faults_per_segment", "ingest.ratings_per_segment", "http.conns_opened_per_segment", "dash.retries_per_segment"},
			}
			for _, k := range zero[name] {
				if m[k] != 0 {
					t.Errorf("%s = %v on %s, predicted 0", k, m[k], name)
				}
			}
			for _, k := range positive[name] {
				if !(m[k] > 0) {
					t.Errorf("%s = %v on %s, want > 0", k, m[k], name)
				}
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.writeTrace(path); err != nil {
				t.Fatal(err)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var spans []map[string]any
			if err := json.Unmarshal(blob, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace file: %d spans, %v", len(spans), err)
			}
		})
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	put := func(kind spanKind, parent uint32, start, end int64) uint32 {
		id := tr.begin(kind, 0, 0, parent)
		tr.spans[id-1].start, tr.spans[id-1].end = start, end
		return id
	}
	stream := put(kStream, 0, 0, 1000)
	put(kDecide, stream, 100, 200)
	rt := put(kRoundTrip, stream, 300, 800)
	serve := put(kServe, rt, 350, 900) // the handler returns after the client saw EOF
	put(kSleep, serve, 400, 600)
	if err := tr.settle(); err != nil {
		t.Fatal(err)
	}
	want := map[spanKind]int64{
		kStream:    1000 - 100 - 500,
		kDecide:    100,
		kRoundTrip: 500 - 450, // the child counts only where it overlaps its parent
		kServe:     550 - 200,
		kSleep:     200,
	}
	for k, w := range want {
		if got := tr.agg.kinds[k].self; got != w {
			t.Errorf("%s self = %d, want %d", kindNames[k], got, w)
		}
	}
}

// --- the contract with BENCHMARK.json ---

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: json %+v, code %q: %q", i, w, workloadNames[i], workloadWhy[workloadNames[i]])
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if cmd := strings.Join(doc.Command, " "); cmd != "bash bench/run.sh" {
		t.Errorf("command = %q", cmd)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// --- compare ---

func TestCompareVerdicts(t *testing.T) {
	rate := metricDef{Name: "segments_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same code", scaled(1.002), verdictSame},
		{"20 % faster on every pair", scaled(1.2), verdictGain},
		{"15 % slower", scaled(0.85), verdictRegression},
		{"5 % slower stays inside the bound", scaled(0.95), verdictSame},
	} {
		if got := compareMetric(rate, a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	if got := compareMetric(rate, noisy, scaled(1.01)).verdict; got != verdictUnresolved {
		t.Errorf("a parent whose own runs spread past the bound: verdict %q, want %q", got, verdictUnresolved)
	}
	lat := metricDef{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	if c := compareMetric(lat, a, scaled(1.2)); c.verdict != verdictRegression || c.worse < 0.19 {
		t.Errorf("a 20 %% higher latency: %+v", c)
	}
}
