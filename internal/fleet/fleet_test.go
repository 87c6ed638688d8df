package fleet

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// excerptOf cuts a short clip of a catalog video for fast tests.
func excerptOf(t testing.TB, name string, chunks int) *video.Video {
	t.Helper()
	full, err := video.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// flatTraces builds named constant-rate traces.
func flatTraces(bps map[string]float64) map[string]*trace.Trace {
	out := make(map[string]*trace.Trace, len(bps))
	for name, rate := range bps {
		out[name] = &trace.Trace{Name: name, BitsPerSecond: []float64{rate}}
	}
	return out
}

// testCatalog is the standard 4-video test mix.
func testCatalog(t testing.TB, chunks int) []*video.Video {
	return []*video.Video{
		excerptOf(t, "Soccer1", chunks),
		excerptOf(t, "Tank", chunks),
		excerptOf(t, "Mountain", chunks),
		excerptOf(t, "Lava", chunks),
	}
}

// TestFleetRun is the tentpole test: a mixed fleet — 4 videos × 2 traces ×
// all 4 ABRs × 2 timescales — against one origin, fully concurrent, with
// the aggregate report reconciling exactly against the origin's /stats
// ledger.
func TestFleetRun(t *testing.T) {
	sessions := 32
	if testing.Short() {
		sessions = 12
	}
	cfg := Config{
		Sessions: sessions,
		Videos:   testCatalog(t, 5),
		Traces: flatTraces(map[string]float64{
			"fast": 3.2e7, // 32 Mbps
			"slow": 2e6,   // 2 Mbps
		}),
		TimeScales:   []float64{0.05, 0.1},
		Profile:      func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		KeepOutcomes: true,
	}
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 {
		t.Fatalf("%d sessions failed:\n%s", report.Failed, report.Render())
	}
	if !report.Reconciliation.Ok {
		t.Fatalf("ledgers did not reconcile:\n%s", report.Render())
	}
	if report.Sessions != sessions || len(report.Outcomes) != sessions {
		t.Fatalf("report covers %d sessions (outcomes %d), want %d",
			report.Sessions, len(report.Outcomes), sessions)
	}

	// Every mix dimension must actually have been exercised.
	if len(report.ByABR) != len(AllABRs()) {
		t.Fatalf("ABR cohorts %v, want all of %v", report.ByABR, AllABRs())
	}
	if len(report.ByTrace) != 2 {
		t.Fatalf("trace cohorts %v", report.ByTrace)
	}
	for name, c := range report.ByABR {
		if c.Sessions == 0 || c.Failed > 0 {
			t.Fatalf("ABR cohort %s: %+v", name, c)
		}
	}

	// Percentiles are ordered and throughput cohorts see shaper isolation:
	// the fast trace cohort must observe clearly more bandwidth.
	if report.RebufferSec.P50 > report.RebufferSec.P95 || report.RebufferSec.P95 > report.RebufferSec.P99 {
		t.Fatalf("rebuffer percentiles out of order: %+v", report.RebufferSec)
	}
	if report.ThroughputMbps.P50 > report.ThroughputMbps.P95 || report.ThroughputMbps.P95 > report.ThroughputMbps.P99 {
		t.Fatalf("throughput percentiles out of order: %+v", report.ThroughputMbps)
	}
	fast, slow := report.ByTrace["fast"], report.ByTrace["slow"]
	if fast.MeanThroughputMbps < 1.5*slow.MeanThroughputMbps {
		t.Fatalf("no shaper isolation across the fleet: fast %.2f Mbps, slow %.2f Mbps",
			fast.MeanThroughputMbps, slow.MeanThroughputMbps)
	}

	// The exact-ledger acceptance: client sums equal the origin's counters.
	if report.Origin.BytesServed != report.BytesDownloaded {
		t.Fatalf("bytes: origin %d, fleet %d", report.Origin.BytesServed, report.BytesDownloaded)
	}
	if report.Origin.SegmentsServed != report.SegmentsDownloaded {
		t.Fatalf("segments: origin %d, fleet %d", report.Origin.SegmentsServed, report.SegmentsDownloaded)
	}

	// The report must render (smoke for the CLI path).
	if out := report.Render(); !strings.Contains(out, "reconciled exactly") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestFleetMixAssignment pins the pure index→slot function: deterministic,
// covering the whole cross product with no dimension confounded with
// another (shared-modulus round-robin would pin each ABR to one trace).
func TestFleetMixAssignment(t *testing.T) {
	cfg := Config{
		Videos:     testCatalog(t, 4),
		Traces:     flatTraces(map[string]float64{"a": 1e6, "b": 2e6, "c": 3e6}),
		ABRs:       AllABRs(),
		TimeScales: []float64{0.01, 0.02},
	}
	names := cfg.traceNames()
	product := len(cfg.Videos) * len(names) * len(cfg.ABRs) * len(cfg.TimeScales)
	type combo struct {
		video, trace string
		abr          ABR
		scale        float64
	}
	seen := map[combo]int{}
	abrTrace := map[string]bool{}
	for k := 0; k < product; k++ {
		a := cfg.assign(k, names, cfg.ABRs, cfg.TimeScales)
		b := cfg.assign(k, names, cfg.ABRs, cfg.TimeScales)
		if a != b {
			t.Fatalf("assignment %d not deterministic: %+v vs %+v", k, a, b)
		}
		seen[combo{a.video.Name, a.trace, a.abr, a.timeScale}]++
		abrTrace[string(a.abr)+"/"+a.trace] = true
	}
	// One full window covers every combination exactly once...
	if len(seen) != product {
		t.Fatalf("%d distinct combos in a window of %d", len(seen), product)
	}
	// ...so in particular every ABR runs on every trace.
	if want := len(cfg.ABRs) * len(names); len(abrTrace) != want {
		t.Fatalf("abr×trace pairs covered: %d of %d (cohorts are confounded)", len(abrTrace), want)
	}
	// The window then repeats, keeping marginals balanced at any fleet size
	// that is a multiple of the window.
	next := cfg.assign(product, names, cfg.ABRs, cfg.TimeScales)
	first := cfg.assign(0, names, cfg.ABRs, cfg.TimeScales)
	if next != first {
		t.Fatalf("window does not repeat: %+v vs %+v", next, first)
	}
}

// TestFleetRunsOnVirtualTimeByDefault pins the default clock: a fleet with
// no Clock set, paced at real time, must span tens of simulated seconds in
// a small fraction of that on the wall clock, and still reconcile.
func TestFleetRunsOnVirtualTimeByDefault(t *testing.T) {
	report, err := Run(context.Background(), Config{
		Sessions: 8,
		Videos:   testCatalog(t, 8),
		Traces:   flatTraces(map[string]float64{"med": 4e6}),
		// A 4 s buffer keeps every 32 s session within a chunk of playback,
		// so each spans at least 24 s of simulated time.
		MaxBufferSec: 4,
		TimeScales:   []float64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || !report.Reconciliation.Ok {
		t.Fatalf("fleet did not reconcile:\n%s", report.Render())
	}
	t.Logf("%.2f simulated s in %.3f wall s", report.VirtualSec, report.ElapsedSec)
	if report.VirtualSec < 20 {
		t.Fatalf("fleet spanned %.2f simulated s, want at least 20", report.VirtualSec)
	}
	if report.Speedup <= 10 {
		t.Fatalf("fleet ran at %.1fx real time (%.2f simulated s in %.2f wall s), want more than 10x",
			report.Speedup, report.VirtualSec, report.ElapsedSec)
	}
}

// cancelClock is a virtual clock that cancels the run on its nth Sleep, so
// the deadline lands mid-run at the same point of the schedule every time.
type cancelClock struct {
	*vclock.Virtual
	left   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelClock) Sleep(ctx context.Context, d time.Duration) bool {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Virtual.Sleep(ctx, d)
}

// TestFleetCanceledContext aborts a fleet mid-run; the harness must return
// a report (not hang or error out) with the failures recorded and the
// reconciliation honestly failing.
func TestFleetCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clock := &cancelClock{Virtual: vclock.NewVirtual(), cancel: cancel}
	// Each of the 40 segments costs one shaper sleep, so after ten sleeps
	// most sessions are still streaming.
	clock.left.Store(10)
	cfg := Config{
		Sessions:   8,
		Videos:     testCatalog(t, 5),
		Traces:     flatTraces(map[string]float64{"slow": 1e6}),
		TimeScales: []float64{0.5},
		Clock:      clock,
	}
	report, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed == 0 {
		t.Fatal("canceled fleet reported no failures")
	}
	if report.Reconciliation.Ok {
		t.Fatal("reconciliation passed despite failed sessions")
	}
	if len(report.Reconciliation.Problems) == 0 {
		t.Fatal("no reconciliation problems listed")
	}
}

// TestFleetConfigValidation rejects unrunnable configs.
func TestFleetConfigValidation(t *testing.T) {
	videos := testCatalog(t, 4)
	traces := flatTraces(map[string]float64{"f": 1e9})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no sessions", Config{Videos: videos, Traces: traces}},
		{"no videos", Config{Sessions: 1, Traces: traces}},
		{"no traces", Config{Sessions: 1, Videos: videos}},
		{"bad abr", Config{Sessions: 1, Videos: videos, Traces: traces, ABRs: []ABR{"nope"}}},
		{"bad timescale", Config{Sessions: 1, Videos: videos, Traces: traces, TimeScales: []float64{-1}}},
	}
	for _, c := range cases {
		if _, err := Run(context.Background(), c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestFleetBoundedWorkers runs more sessions than workers; the bound must
// not deadlock or skew the ledger.
func TestFleetBoundedWorkers(t *testing.T) {
	report, err := Run(context.Background(), Config{
		Sessions:   9,
		Workers:    3,
		Videos:     testCatalog(t, 4),
		Traces:     flatTraces(map[string]float64{"f": 2e7}),
		TimeScales: []float64{0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || !report.Reconciliation.Ok {
		t.Fatalf("bounded-worker fleet:\n%s", report.Render())
	}
}

// BenchmarkFleet measures whole-fleet throughput (sessions per second of
// harness wall clock) on a small mixed workload with shaping effectively
// disabled, so the number tracks harness + client + origin overhead rather
// than trace replay.
func BenchmarkFleet(b *testing.B) {
	catalog := testCatalog(b, 4)
	traces := flatTraces(map[string]float64{"f": 1e9})
	const sessions = 16
	b.ResetTimer()
	var totalSessions float64
	for i := 0; i < b.N; i++ {
		report, err := Run(context.Background(), Config{
			Sessions:   sessions,
			Videos:     catalog,
			Traces:     traces,
			TimeScales: []float64{0.001},
		})
		if err != nil {
			b.Fatal(err)
		}
		if report.Failed != 0 || !report.Reconciliation.Ok {
			b.Fatalf("fleet failed:\n%s", report.Render())
		}
		totalSessions += float64(report.Sessions)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(totalSessions/sec, "sessions/s")
	}
}

// TestFleetWeightRefresh is the live-sensitivity-plane scenario: a 64-
// session mixed fleet (smaller under -short) with a catalog-wide weight
// refresh fired once every session is mid-stream. Reconciliation then
// proves the bump reached every session (all finish on the new epoch, the
// epochs match /stats exactly) and the per-epoch QoE cohorts partition the
// fleet.
func TestFleetWeightRefresh(t *testing.T) {
	sessions := 64
	if testing.Short() {
		sessions = 16
	}
	cfg := Config{
		Sessions: sessions,
		Videos:   testCatalog(t, 8),
		// Slow traces and a short post-join grace: every session's shaped
		// downloads outlast the bump by an order of magnitude, so the
		// refresh lands while the whole fleet is mid-stream.
		Traces: flatTraces(map[string]float64{
			"med":  4e6,   // 4 Mbps
			"slow": 1.5e6, // 1.5 Mbps
		}),
		TimeScales: []float64{0.05},
		Profile:    func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		Refresh: &RefreshSpec{
			After:   50 * time.Millisecond,
			Weights: ReversedSensitivity,
		},
		KeepOutcomes: true,
	}
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 {
		t.Fatalf("%d sessions failed:\n%s", report.Failed, report.Render())
	}
	if !report.Reconciliation.Ok {
		t.Fatalf("refresh fleet did not reconcile:\n%s", report.Render())
	}
	if report.Refresh == nil || !report.Refresh.Applied {
		t.Fatalf("refresh not applied: %+v", report.Refresh)
	}
	if got := len(report.Refresh.Epochs); got != len(cfg.Videos) {
		t.Fatalf("refresh covered %d videos of %d", got, len(cfg.Videos))
	}
	for name, epoch := range report.Refresh.Epochs {
		if epoch != 2 {
			t.Fatalf("video %s refreshed to epoch %d, want 2", name, epoch)
		}
		if report.Origin.WeightEpochs[name] != 2 {
			t.Fatalf("origin reports epoch %d for %s", report.Origin.WeightEpochs[name], name)
		}
	}
	if report.Origin.ProfilesRefreshed != int64(len(cfg.Videos)) {
		t.Fatalf("origin counted %d refreshes", report.Origin.ProfilesRefreshed)
	}

	// Every session converged on the new epoch — the scenario is sized so
	// none finishes before the bump — and the ones that started on epoch
	// 1 adopted it mid-stream via exactly the header→re-fetch path.
	if report.Refresh.SessionsConverged != sessions || report.Refresh.SessionsFinishedEarly != 0 {
		t.Fatalf("refresh reached %d of %d sessions (%d finished early):\n%s",
			report.Refresh.SessionsConverged, sessions, report.Refresh.SessionsFinishedEarly, report.Render())
	}
	var flipped, refetches int
	for _, o := range report.Outcomes {
		if !o.HasWeights {
			t.Fatalf("session %d streamed weightless", o.Index)
		}
		if o.WeightEpoch != 2 {
			t.Fatalf("session %d finished on epoch %d: %+v", o.Index, o.WeightEpoch, o)
		}
		if o.FirstEpoch == 1 {
			flipped++
			if o.WeightRefreshes < 1 {
				t.Fatalf("session %d flipped epochs without a /weights re-fetch", o.Index)
			}
			refetches += o.WeightRefreshes
		}
	}
	// The scenario only proves mid-stream adoption if sessions actually
	// started on the old epoch; the join barrier makes that the norm.
	if flipped < sessions/2 {
		t.Fatalf("only %d of %d sessions spanned the epoch flip", flipped, sessions)
	}
	if refetches > flipped {
		t.Fatalf("%d re-fetches for %d flipped sessions (clients are polling)", refetches, flipped)
	}

	// Per-epoch QoE cohorts: the mid-stream cohort exists, partitions the
	// fleet together with any pure-epoch-2 stragglers, and carries QoE.
	span, ok := report.ByEpoch["1→2"]
	if !ok {
		t.Fatalf("no 1→2 epoch cohort: %v", report.ByEpoch)
	}
	if span.Sessions != flipped {
		t.Fatalf("epoch cohort has %d sessions, outcomes say %d", span.Sessions, flipped)
	}
	var cohortSessions int
	for _, c := range report.ByEpoch {
		cohortSessions += c.Sessions
	}
	if cohortSessions != sessions {
		t.Fatalf("epoch cohorts cover %d of %d sessions", cohortSessions, sessions)
	}
	if span.MeanQoE == 0 || span.MeanTrueQoE == 0 {
		t.Fatalf("epoch cohort missing QoE: %+v", span)
	}
	if !strings.Contains(report.Render(), "refresh: published") {
		t.Fatalf("render lacks the refresh line:\n%s", report.Render())
	}
}

// TestFleetRefreshConfigValidation rejects unrunnable refresh specs.
func TestFleetRefreshConfigValidation(t *testing.T) {
	videos := testCatalog(t, 4)
	traces := flatTraces(map[string]float64{"f": 1e9})
	profile := func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no weights fn", Config{Sessions: 1, Videos: videos, Traces: traces, Profile: profile,
			Refresh: &RefreshSpec{}}},
		{"negative delay", Config{Sessions: 1, Videos: videos, Traces: traces, Profile: profile,
			Refresh: &RefreshSpec{After: -time.Second, Weights: ReversedSensitivity}}},
		{"refresh without profile", Config{Sessions: 1, Videos: videos, Traces: traces,
			Refresh: &RefreshSpec{Weights: ReversedSensitivity}}},
	}
	for _, c := range cases {
		if _, err := Run(context.Background(), c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
