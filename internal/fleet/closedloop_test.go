package fleet

import (
	"context"
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
		{"negative population", Config{Sessions: 1, Videos: videos, Traces: traces,
			Profile: func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
			Raters:  &RaterSpec{PopulationSize: -1}}},
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
