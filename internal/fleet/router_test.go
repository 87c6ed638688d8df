package fleet

import (
	"context"
	"strings"
	"testing"

	"sensei/internal/video"
)

// TestFleetRouterShards runs a mixed fleet against a 4-shard router and
// demands the same exact reconciliation a single origin gets, plus the
// shard-level proofs: the merged /stats equals the sum of the per-shard
// ledgers, sessions actually spread across shards, and no shard leaks.
func TestFleetRouterShards(t *testing.T) {
	sessions := 32
	if testing.Short() {
		sessions = 16
	}
	cfg := Config{
		Sessions:     sessions,
		OriginShards: 4,
		Videos:       testCatalog(t, 5),
		Traces: flatTraces(map[string]float64{
			"fast": 3.2e7,
			"slow": 2e6,
		}),
		TimeScales:   []float64{0.05},
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
	if len(report.ShardStats) != 4 {
		t.Fatalf("report carries %d shard ledgers, want 4", len(report.ShardStats))
	}
	// The hash must have actually spread the fleet: with 32 sessions on 4
	// shards, at least two shards see traffic (the ring test pins balance
	// much tighter; this guards the fleet wiring, not the ring).
	busy := 0
	var created int64
	for _, s := range report.ShardStats {
		if s.SessionsCreated > 0 {
			busy++
		}
		created += s.SessionsCreated
	}
	if busy < 2 {
		t.Fatalf("all %d sessions landed on one shard:\n%s", sessions, report.Render())
	}
	if created != int64(sessions) {
		t.Fatalf("shard ledgers account for %d sessions, want %d", created, sessions)
	}
	if out := report.Render(); !strings.Contains(out, "shards: 4 origins") {
		t.Fatalf("render misses the shard line:\n%s", out)
	}
}

// TestFleetRouterRejectsRaters pins the compatibility contract at the
// config layer: a sharded fleet cannot run rater cohorts, because the
// ingest autopilot aggregates evidence in one plane.
func TestFleetRouterRejectsRaters(t *testing.T) {
	cfg := Config{
		Sessions:     4,
		OriginShards: 2,
		Videos:       testCatalog(t, 3),
		Traces:       flatTraces(map[string]float64{"fast": 3.2e7}),
		Profile:      func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		Raters:       &RaterSpec{},
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("sharded fleet accepted rater cohorts")
	}
}
