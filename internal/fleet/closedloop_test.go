package fleet

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"sensei/internal/ingest"
	"sensei/internal/video"
)

// TestFleetClosedLoop is the closed-feedback-loop scenario: a 64-session
// mixed fleet (smaller under -short) whose sessions each carry a mos-backed
// rater persona posting one score per rendered chunk. The origin's ingest
// autopilot must convert the accumulated evidence into at least one
// autonomous epoch bump — no POST /refresh is ever issued — mid-run, so
// per-epoch QoE cohorts appear in the report, and the ingest ledger must
// reconcile exactly against /stats.
func TestFleetClosedLoop(t *testing.T) {
	sessions := 64
	if testing.Short() {
		sessions = 16
	}
	// Tighter gate than even FleetIngestDefaults: a -short CI fleet posts
	// ~an eighth of the full run's ratings, and the scenario needs the
	// bump to fire while sessions are still mid-stream.
	icfg := FleetIngestDefaults()
	icfg.MinSamples = 8
	icfg.MinWeightDelta = 0.02
	icfg.MinInterval = 100 * time.Millisecond
	cfg := Config{
		Sessions: sessions,
		Videos:   testCatalog(t, 8),
		// Slow traces: sessions outlast the evidence accumulation, and the
		// shaped deficits give raters something to disagree about across
		// chunk windows.
		Traces: flatTraces(map[string]float64{
			"med":  4e6,   // 4 Mbps
			"slow": 1.5e6, // 1.5 Mbps
		}),
		TimeScales:   []float64{0.05},
		Profile:      func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		Raters:       &RaterSpec{Ingest: &icfg},
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
		t.Fatalf("closed-loop fleet did not reconcile:\n%s", report.Render())
	}

	// The feedback side of the ledger: every session rated, the client and
	// origin sums agree exactly (reconciliation already asserted it — these
	// are the direct reads the test documents).
	led, ing := report.Ingest, report.Origin.Ingest
	if led == nil || ing == nil {
		t.Fatalf("report missing the ingest ledger: %+v / %+v", led, ing)
	}
	if led.SessionsRated != sessions {
		t.Fatalf("%d of %d sessions posted ratings", led.SessionsRated, sessions)
	}
	if led.RatingsPosted == 0 || led.RatingsPosted != led.RatingsAccepted+led.RatingsQuarantined {
		t.Fatalf("fleet rating ledger inconsistent: %+v", led)
	}
	if led.RatingsAccepted != ing.RatingsAccepted || led.RatingsQuarantined != ing.RatingsQuarantined {
		t.Fatalf("client/origin rating ledgers disagree: %+v vs %+v", led, ing)
	}

	// The autonomy proof: ≥1 epoch bump, all attributable to the ingest
	// autopilot (no operator refresh exists in this scenario), and /stats
	// epochs past 1 for at least one video.
	if ing.RefreshesApplied < 1 {
		t.Fatalf("no autonomous refresh fired:\n%s", report.Render())
	}
	if ing.RefreshErrors != 0 || ing.RefreshesTriggered != ing.RefreshesApplied {
		t.Fatalf("autopilot unsettled: %+v", ing)
	}
	if report.Origin.ProfilesRefreshed != ing.RefreshesApplied {
		t.Fatalf("epoch bumps not attributable to the autopilot: %d vs %d",
			report.Origin.ProfilesRefreshed, ing.RefreshesApplied)
	}
	bumped := false
	for _, epoch := range report.Origin.WeightEpochs {
		if epoch >= 2 {
			bumped = true
		}
	}
	if !bumped {
		t.Fatalf("no video's epoch advanced: %v", report.Origin.WeightEpochs)
	}

	// Mid-run adoption: per-epoch QoE cohorts appear — at least one session
	// spanned an epoch flip it adopted from the wire (a "1→N" cohort), and
	// the cohorts partition the fleet.
	var spanned int
	for key, c := range report.ByEpoch {
		if strings.Contains(key, "→") {
			spanned += c.Sessions
			if c.Sessions > 0 && (c.MeanQoE == 0 || c.MeanTrueQoE == 0) {
				t.Fatalf("epoch cohort %s missing QoE: %+v", key, c)
			}
		}
	}
	if spanned == 0 {
		t.Fatalf("no session spanned the autonomous epoch bump: %v", report.ByEpoch)
	}
	var cohortSessions int
	for _, c := range report.ByEpoch {
		cohortSessions += c.Sessions
	}
	if cohortSessions != sessions {
		t.Fatalf("epoch cohorts cover %d of %d sessions", cohortSessions, sessions)
	}

	// Quarantine actually exercised: sessions that rated across a flip
	// posted stale-stamped scores the origin counted but kept out of the
	// estimate.
	if led.RatingsQuarantined == 0 {
		t.Logf("note: no rating was quarantined this run (every flip landed between ratings)")
	}

	if out := report.Render(); !strings.Contains(out, "ingest:") || !strings.Contains(out, "autopilot:") {
		t.Fatalf("render lacks the ingest ledger:\n%s", out)
	}
}

// TestFleetClosedLoopConfigValidation rejects unrunnable rater specs.
func TestFleetClosedLoopConfigValidation(t *testing.T) {
	videos := testCatalog(t, 4)
	traces := flatTraces(map[string]float64{"f": 1e9})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"raters without profile", Config{Sessions: 1, Videos: videos, Traces: traces,
			Raters: &RaterSpec{}}},
	}
	for _, c := range cases {
		if _, err := Run(context.Background(), c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestFleetIngestDefaultsAreValid pins that the fleet-tuned autopilot
// config builds a plane as-is.
func TestFleetIngestDefaultsAreValid(t *testing.T) {
	cfg := FleetIngestDefaults()
	p, err := ingest.New(cfg, noopRefresher{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
}

type noopRefresher struct{}

func (noopRefresher) EpochOf(string) uint64                          { return 1 }
func (noopRefresher) RefreshWindow(string, int, int) (uint64, error) { return 1, nil }

// TestFleetClosedLoopAllocBudget pins what the closed loop costs the
// allocator: Mallocs of the whole process during Run over segments
// downloaded, on a virtual-time fleet with chaos, events and raters whose
// ratings re-profile windows and bump epochs mid-run, so that every
// session re-fetches weights. A count, not a time: with fixed seeds it
// repeats to within a few hundredths on any machine. Measured: 3.40 with
// one profiler label set and one leave context per run and each client's
// request and reply buffers taken from a pool; 3.56 with
// each session's join, manifest and leave allocating only what the session
// keeps; 4.06 with the injected 503's body shared; 4.14 with
// each refresh's excerpt sharing its video's tables, Publish keeping the
// vector Splice built, one epoch stamp per epoch, fault mirrors carrying
// their kind token and the harness counting them without a slice; 5.10
// before, and 9.48 before the bodies shared the strings their reader
// holds and manifests were rendered without fmt.
func TestFleetClosedLoopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf and sync.Pool drops a share of Puts under it")
	}
	const budget = 4.18 // 3.40 to 3.48 measured, plus 20 %
	var catalog []*video.Video
	for _, name := range []string{"Soccer1", "Tank", "Mountain", "Lava"} {
		v, err := video.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		catalog = append(catalog, v)
	}
	// The autopilot evidence floor is lowered to 4 ratings per window: two
	// sessions per video never reach fleet's default of 12.
	icfg := FleetIngestDefaults()
	icfg.MinSamples = 4
	var rep *Report
	measure := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		rep, err = Run(context.Background(), Config{
			Sessions:   8,
			Workers:    2,
			Videos:     catalog,
			Traces:     flatTraces(map[string]float64{"med": 4e6, "slow": 1.5e6}),
			TimeScales: []float64{1},
			Profile:    func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
			Chaos:      &ChaosSpec{Seed: 0xc4a05},
			Events:     &EventsSpec{},
			Raters:     &RaterSpec{Seed: 0x5e11, Ingest: &icfg},
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || !rep.Reconciliation.Ok {
			t.Fatalf("fleet did not reconcile:\n%s", rep.Render())
		}
		if ing := rep.Origin.Ingest; ing == nil || ing.RefreshesApplied == 0 {
			t.Fatalf("the loop never closed: no autonomous refresh\n%s", rep.Render())
		}
		return float64(after.Mallocs-before.Mallocs) / float64(rep.SegmentsDownloaded)
	}
	measure() // warm the pools and every lazily built table
	got := measure()
	t.Logf("%.2f allocations per downloaded segment over %d segments and %d autonomous refreshes (budget %v)",
		got, rep.SegmentsDownloaded, rep.Origin.Ingest.RefreshesApplied, budget)
	if got > budget {
		t.Fatalf("%.2f allocations per downloaded segment exceeds the budget of %v", got, budget)
	}
}
