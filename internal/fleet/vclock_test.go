package fleet

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/par"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// The clock-parity suite proves the virtual clock changes only how fast a
// fleet runs, never what it does: the same seeded scenario on the wall
// clock and on the virtual clock must produce identical per-session rung
// sequences, identical resilience ledgers, identical two-sided fault
// totals, and reconcile exactly against /stats in both modes.
//
// Wall-clock mode is the oracle, and it carries real measurement noise:
// per-request overhead (the request exchange itself plus scheduler
// latency, which on a single-core race runner reaches tens of
// milliseconds during the session-start herd)
// lands in each client's measured download time, where the virtual clock
// measures the shaped duration exactly. A parity scenario therefore has
// to keep every ABR decision deep inside a plateau of its decision
// function, so that noise-sized input deltas cannot flip any rung. Two
// regimes cover the ladder from both ends:
//
//   - flood: a flat trace 11× above the top rung. The rate-based rule
//     picks the top rung for any measured throughput above ~3.2 Mbps —
//     an order of magnitude of noise margin — and BOLA (buffer-driven,
//     parameterized for a 60 s player) sits on its bottom-rung plateau
//     up to ~9.6 s of buffer, far above the 4 s cap. The MPC family is
//     excluded here: with a single throughput sample its risk-averse
//     planner has decision boundaries near 8 Mbps, which startup
//     scheduling noise genuinely crosses on a loaded runner.
//   - trickle: a flat trace below the bottom rung. Every algorithm —
//     the MPC family included — is pinned to rung 0: downloads run
//     seconds long, so overhead noise is a percent-level perturbation on
//     a throughput estimate that would have to quadruple to leave the
//     plateau. This is where mpc and sensei-mpc (proactive stalls and
//     all) get their exact wall-vs-virtual comparison.
//
// Chaos faults only the session, manifest and segment kinds: those
// streams carry a deterministic request sequence per slot (one join, one
// manifest, one segment per chunk, plus schedule-determined retries), so
// the seeded fault schedule replays identically on both clocks. The
// weights and rating kinds stay fault-free — their request counts depend
// on when the epoch beacon is observed, which is exactly the timing the
// two clocks measure differently. The mid-run refresh republishes each
// video's profiled weights verbatim: the epoch bump exercises mid-stream
// adoption without letting its timing change any decision.

// parityChaos is the fault plane shared by both parity regimes.
func parityChaos() *ChaosSpec {
	return &ChaosSpec{
		Seed: 0x7c10c4,
		Endpoints: map[chaos.Kind]chaos.Spec{
			chaos.KindSession:  {Rate: 0.12},
			chaos.KindManifest: {Rate: 0.20},
			chaos.KindSegment:  {Rate: 0.08},
		},
		StallDelay: 5 * time.Millisecond,
		Retry:      par.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// parityConfig assembles one parity regime. The refresh weights function
// republishes the profile itself (see the suite comment).
func parityConfig(t testing.TB, sessions int, clock vclock.Clock, abrs []ABR, rate, timeScale float64) Config {
	profile := func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil }
	return Config{
		Sessions:     sessions,
		Videos:       testCatalog(t, 5),
		Traces:       flatTraces(map[string]float64{"flat": rate}),
		ABRs:         abrs,
		TimeScales:   []float64{timeScale},
		MaxBufferSec: 4,
		Profile:      profile,
		Refresh:      &RefreshSpec{After: 50 * time.Millisecond, Weights: profile},
		Chaos:        parityChaos(),
		KeepOutcomes: true,
		Clock:        clock,
	}
}

// runParityPair runs one regime on both clocks and compares every
// timing-independent observable exactly.
func runParityPair(t *testing.T, regime string, cfg func(clock vclock.Clock) Config) {
	t.Helper()
	run := func(name string, clock vclock.Clock) *Report {
		rep, err := Run(context.Background(), cfg(clock))
		if err != nil {
			t.Fatalf("%s %s-clock run: %v", regime, name, err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s %s-clock run lost %d sessions:\n%s", regime, name, rep.Failed, rep.Render())
		}
		if !rep.Reconciliation.Ok {
			t.Fatalf("%s %s-clock run did not reconcile:\n%s", regime, name, rep.Render())
		}
		return rep
	}
	wall := run("wall", vclock.NewReal())
	virt := run("virtual", vclock.NewVirtual())

	for k := range wall.Outcomes {
		w, v := &wall.Outcomes[k], &virt.Outcomes[k]
		if !reflect.DeepEqual(w.Rungs, v.Rungs) {
			t.Errorf("%s session %d (%s/%s): rung sequence diverged\n  wall:    %v\n  virtual: %v",
				regime, k, w.Video, w.ABR, w.Rungs, v.Rungs)
		}
		if w.Segments != v.Segments || w.BytesDownloaded != v.BytesDownloaded {
			t.Errorf("%s session %d: wall %d segments / %d bytes, virtual %d / %d",
				regime, k, w.Segments, w.BytesDownloaded, v.Segments, v.BytesDownloaded)
		}
		if !reflect.DeepEqual(w.Resilience, v.Resilience) {
			t.Errorf("%s session %d: resilience ledger diverged\n  wall:    %+v\n  virtual: %+v",
				regime, k, w.Resilience, v.Resilience)
		}
	}
	if !reflect.DeepEqual(wall.Chaos.Injected, virt.Chaos.Injected) {
		t.Errorf("%s: injected fault totals diverged: wall %v, virtual %v",
			regime, wall.Chaos.Injected, virt.Chaos.Injected)
	}
	if !reflect.DeepEqual(wall.Chaos.Survived, virt.Chaos.Survived) {
		t.Errorf("%s: survived fault totals diverged: wall %v, virtual %v",
			regime, wall.Chaos.Survived, virt.Chaos.Survived)
	}
	if wall.Chaos.Retries != virt.Chaos.Retries {
		t.Errorf("%s: retry totals diverged: wall %d, virtual %d", regime, wall.Chaos.Retries, virt.Chaos.Retries)
	}
	if virt.VirtualSec <= 0 {
		t.Errorf("%s: virtual run simulated %.3fs", regime, virt.VirtualSec)
	}
}

// TestFleetClockParityFlood is the high-plateau arm: throughput-saturated
// sessions whose rung sequences climb to (and hold) the top rung.
func TestFleetClockParityFlood(t *testing.T) {
	runParityPair(t, "flood", func(clock vclock.Clock) Config {
		return parityConfig(t, 32, clock, []ABR{ABRRateBased, ABRBOLA}, 3.2e7, 0.3)
	})
}

// TestFleetClockParityTrickle is the low-plateau arm: starved sessions
// pinned to the bottom rung, with the MPC family — proactive stalls and
// all — compared exactly between the clocks.
func TestFleetClockParityTrickle(t *testing.T) {
	runParityPair(t, "trickle", func(clock vclock.Clock) Config {
		return parityConfig(t, 32, clock, AllABRs(), 2.5e5, 0.15)
	})
}

// TestFleetVirtualClock is the virtual plane's standalone smoke (kept
// -short- and race-friendly: no wall-clock arm, so it spends no real time
// sleeping): a chaos fleet on the virtual clock alone must drain every
// session and reconcile exactly, and the run must span simulated time.
func TestFleetVirtualClock(t *testing.T) {
	sessions := 64
	if testing.Short() {
		sessions = 24
	}
	cfg := parityConfig(t, sessions, vclock.NewVirtual(), AllABRs(), 3.2e7, 0.3)
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d sessions lost:\n%s", rep.Failed, rep.Render())
	}
	if !rep.Reconciliation.Ok {
		t.Fatalf("virtual-clock fleet did not reconcile:\n%s", rep.Render())
	}
	if rep.VirtualSec <= 0 {
		t.Fatalf("virtual run simulated %.3fs", rep.VirtualSec)
	}
}
