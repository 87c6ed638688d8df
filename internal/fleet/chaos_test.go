package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/par"
	"sensei/internal/video"
)

// chaosFleetConfig is the shared scenario for the chaos suite: a mixed
// fleet with the full feedback loop live — operator refresh mid-run (so
// /weights sees traffic) and rater cohorts (so /rating does) — meaning
// every one of the five faultable endpoint kinds carries requests.
func chaosFleetConfig(t testing.TB, sessions int) Config {
	return Config{
		Sessions: sessions,
		Videos:   testCatalog(t, 8),
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
		Raters:       &RaterSpec{},
		KeepOutcomes: true,
	}
}

// chaosFleetSpec is the suite's fault plane: every endpoint kind faulted,
// the chattier planes harder, with the stock ceiling (2) safely under the
// stock retry budget (4) so no session may legitimately be lost.
func chaosFleetSpec() *ChaosSpec {
	return &ChaosSpec{
		Seed: 0x5e11c4a05,
		Endpoints: map[chaos.Kind]chaos.Spec{
			chaos.KindSession:  {Rate: 0.12},
			chaos.KindManifest: {Rate: 0.20},
			chaos.KindSegment:  {Rate: 0.08},
			chaos.KindWeights:  {Rate: 0.30},
			chaos.KindRating:   {Rate: 0.10},
		},
		StallDelay: 5 * time.Millisecond,
		Retry:      par.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// TestFleetChaos is the resilience tentpole: a 64-session mixed fleet
// (smaller under -short) streamed through a fault-injecting origin — every
// endpoint kind faulted, all four failure modes live — and proves the
// contract at scale: zero sessions lost below the fault ceiling, the
// client and origin fault ledgers reconcile exactly per endpoint kind, the
// whole fault schedule replays from the policy seed alone, and true QoE
// stays within a bounded distance of the same fleet run fault-free.
func TestFleetChaos(t *testing.T) {
	sessions := 64
	if testing.Short() {
		sessions = 16
	}
	spec := chaosFleetSpec()
	cfg := chaosFleetConfig(t, sessions)
	cfg.Chaos = spec
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Zero lost sessions: the ceiling (2 consecutive faults per stream) is
	// below every client's retry budget (4), so every wire op eventually
	// succeeds and no fault may surface as a session failure.
	if report.Failed != 0 {
		t.Fatalf("%d sessions lost below the fault ceiling:\n%s", report.Failed, report.Render())
	}
	if !report.Reconciliation.Ok {
		t.Fatalf("chaos fleet did not reconcile:\n%s", report.Render())
	}
	cl := report.Chaos
	if cl == nil {
		t.Fatal("chaos fleet report carries no chaos ledger")
	}
	if cl.Seed != spec.Seed {
		t.Fatalf("ledger seed %#x, spec %#x", cl.Seed, spec.Seed)
	}

	// Every endpoint kind actually saw faults — a kind with zero injections
	// proves nothing about that plane's resilience.
	for _, kind := range chaos.Kinds() {
		if cl.Injected[string(kind)] == 0 {
			t.Errorf("no %s faults injected (seed/rates need retuning):\n%s", kind, report.Render())
		}
	}
	// Exact two-sided equality per kind (reconcile checks this too; assert
	// directly so a regression fails loudly here).
	for _, kind := range chaos.Kinds() {
		if inj, srv := cl.Injected[string(kind)], cl.Survived[string(kind)]; inj != srv {
			t.Errorf("%s: injected %d, survived %d", kind, inj, srv)
		}
	}
	if cl.Retries == 0 {
		t.Error("faults were injected but no client ever retried")
	}
	// Ceiling < budget also means the degradation ladder never engages:
	// nothing falls to rung 0, no stale-weight holds, no dropped ratings.
	if cl.Degradations != 0 {
		t.Errorf("%d degradations below the fault ceiling:\n%s", cl.Degradations, report.Render())
	}

	// Replay proof: the journal is complete and every event — mode, stream
	// and sequence — is reproduced by Policy.Replay from the seed alone.
	var injected int64
	for _, n := range cl.Injected {
		injected += n
	}
	if int64(len(cl.Events)) != injected {
		t.Fatalf("journal has %d events for %d injected faults", len(cl.Events), injected)
	}
	policy := spec.Policy()
	type stream struct {
		key  string
		kind chaos.Kind
	}
	maxSeq := map[stream]uint64{}
	events := map[stream]map[uint64]chaos.Mode{}
	for _, e := range cl.Events {
		s := stream{e.Key, e.Kind}
		if events[s] == nil {
			events[s] = map[uint64]chaos.Mode{}
		}
		if _, dup := events[s][e.Seq]; dup {
			t.Fatalf("duplicate journal event %+v", e)
		}
		events[s][e.Seq] = e.Mode
		if e.Seq+1 > maxSeq[s] {
			maxSeq[s] = e.Seq + 1
		}
	}
	for s, n := range maxSeq {
		modes := policy.Replay(s.key, s.kind, n)
		for seq, mode := range modes {
			if got := events[s][uint64(seq)]; got != mode {
				t.Fatalf("stream %s/%s seq %d: journal says %q, Replay says %q",
					s.key, s.kind, seq, got, mode)
			}
		}
	}

	// The render carries the chaos section for operators.
	if !strings.Contains(report.Render(), "chaos:") {
		t.Fatalf("render lacks the chaos line:\n%s", report.Render())
	}

	// Bounded true-QoE degradation: the same fleet fault-free is the
	// baseline; retrying through faults costs backoff time, which the
	// buffer mostly absorbs, so the latent-MOS gap must stay small.
	baseline, err := Run(context.Background(), chaosFleetConfig(t, sessions))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Failed != 0 || !baseline.Reconciliation.Ok {
		t.Fatalf("fault-free baseline broken:\n%s", baseline.Render())
	}
	if gap := baseline.MeanTrueQoE - report.MeanTrueQoE; gap > 0.75 {
		t.Fatalf("chaos cost %.3f true-QoE (%.3f → %.3f), budget 0.75",
			gap, baseline.MeanTrueQoE, report.MeanTrueQoE)
	}
}

// TestFleetChaosConfigValidation rejects fault planes that would lose
// sessions by construction.
func TestFleetChaosConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Sessions:   1,
			Videos:     testCatalog(t, 4),
			Traces:     flatTraces(map[string]float64{"f": 1e9}),
			TimeScales: []float64{0.002},
		}
	}
	cfg := base()
	cfg.Chaos = &ChaosSpec{Rate: 1.5}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("rate 1.5 accepted")
	}
	cfg = base()
	cfg.Chaos = &ChaosSpec{MaxConsecutive: 3, Retry: par.Backoff{Attempts: 2}}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("fault ceiling above the retry budget accepted")
	}
	// A ceiling equal to the budget is the edge that still always recovers.
	cfg = base()
	cfg.Chaos = &ChaosSpec{Rate: 0.05, MaxConsecutive: 2, Retry: par.Backoff{
		Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}}
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || !report.Reconciliation.Ok {
		t.Fatalf("edge-budget fleet failed:\n%s", report.Render())
	}
}

// BenchmarkFleetChaos measures fleet throughput with the fault plane live —
// the resilience tax at a moderate uniform rate, in sessions per second.
func BenchmarkFleetChaos(b *testing.B) {
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
			Chaos: &ChaosSpec{
				Rate:       0.08,
				StallDelay: time.Millisecond,
				Retry:      par.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if report.Failed != 0 || !report.Reconciliation.Ok {
			b.Fatalf("chaos fleet failed:\n%s", report.Render())
		}
		totalSessions += float64(report.Sessions)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(totalSessions/sec, "sessions/s")
	}
}
