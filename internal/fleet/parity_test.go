package fleet

import (
	"context"
	"math"
	"net/http"
	"reflect"
	"testing"

	"sensei/internal/dash"
	"sensei/internal/origin"
	"sensei/internal/player"
	"sensei/internal/sensitivity"
	"sensei/internal/stats"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// The client/simulator parity contract (see DESIGN.md): dash.Client over a
// real origin and player.Play over the same video, trace and algorithm
// must produce the same playback — identical rung sequences and matching
// stall ledgers. A flat trace makes the contract testable end to end: any
// divergence in buffer arithmetic, stall accounting or decision plumbing
// shows up as a rung or stall mismatch.
//
// The proofs run on virtual time, where a shaped download's measured
// duration is exact (to the nanosecond the clock counts in), so parity is
// an equality: the client's throughput samples are the trace rate, and a
// planner decision that flips on a sub-percent input delta (SENSEI-Fugu's
// chunk 4 at 2.489 Mbps, 0.4 % under this trace) cannot flip. One
// wall-clock smoke keeps the tolerance contract honest over real TCP.

// parityRate is the flat trace every parity test runs on: enough for
// mid-ladder rungs with real decision pressure.
const parityRate = 2.5e6

// exactTolerance bounds |client − simulator| stall seconds on virtual time:
// nothing but nanosecond rounding of download durations separates them.
const exactTolerance = 1e-6

// stallTolerance bounds the same difference on the wall clock, in virtual
// seconds. Client downloads run a few percent long (protocol overhead), so
// marginal stalls shift by that much per chunk.
const stallTolerance = 0.5

func parityTrace() *trace.Trace {
	return &trace.Trace{Name: "flat", BitsPerSecond: []float64{parityRate}}
}

// parityOrigin builds a one-video origin (profiled with w) shaping every
// session to the parity trace on clock (nil: the wall clock) at scale.
func parityOrigin(t *testing.T, v *video.Video, w []float64, clock vclock.Clock, scale float64) *origin.Server {
	t.Helper()
	tr := parityTrace()
	o, err := origin.New(origin.Config{
		Clock:        clock,
		Catalog:      []*video.Video{v},
		Profile:      func(*video.Video) ([]float64, error) { return w, nil },
		Traces:       map[string]*trace.Trace{tr.Name: tr},
		DefaultTrace: tr.Name,
		TimeScale:    scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := origin.NewServer(o)
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// streamVirtual streams v through c from a fresh origin (profiled with w)
// on one virtual clock at timescale 1, over the fleet's in-process request
// plane.
func streamVirtual(t *testing.T, v *video.Video, w []float64, c *dash.Client) *dash.Session {
	t.Helper()
	clock := vclock.NewVirtual()
	base, rt, done := inProcess(parityOrigin(t, v, w, clock, 1).Origin())
	defer done()

	c.BaseURL = base
	c.HTTP = &http.Client{Transport: rt}
	c.Clock = clock
	// The client is the run's one registered participant: simulated time
	// advances exactly while the origin's shaper holds its request.
	clock.Enter()
	defer clock.Exit()
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// assertSamePlayback is the equality half of the contract: rung for rung,
// and stall for stall to exactTolerance.
func assertSamePlayback(t *testing.T, sim *player.Result, sess *dash.Session) {
	t.Helper()
	// Rung sequences must match chunk for chunk: the decisions depend on
	// buffer state and throughput history, so a single divergence in
	// playback arithmetic cascades into different sequences.
	if !reflect.DeepEqual(sim.Rendering.Rungs, sess.Rendering.Rungs) {
		t.Fatalf("rung sequences diverge:\n  simulator %v\n  client    %v", sim.Rendering.Rungs, sess.Rendering.Rungs)
	}
	// The simulator books the first chunk's download as startup delay, not
	// rebuffering, and so does the client — both ledgers cover chunks ≥ 1.
	if d := math.Abs(sim.RebufferSec - sess.RebufferVirtualSec); d > exactTolerance {
		t.Fatalf("stall totals diverge by %.9fs: simulator %.9f, client %.9f", d, sim.RebufferSec, sess.RebufferVirtualSec)
	}
	// Per-chunk stall placement, not just the total: SENSEI's whole point
	// is WHERE stalls land.
	for i := 1; i < len(sim.Rendering.Rungs); i++ {
		if d := math.Abs(sim.Rendering.StallSec[i] - sess.Rendering.StallSec[i]); d > exactTolerance {
			t.Fatalf("stall placement diverges at chunk %d: simulator %.9f, client %.9f",
				i, sim.Rendering.StallSec[i], sess.Rendering.StallSec[i])
		}
	}
	// The measurement itself: every throughput sample is the trace rate.
	// (Observed within 1e-9; a download's duration is whole nanoseconds.)
	for i, bps := range sess.ThroughputBps {
		if math.Abs(bps-parityRate) > parityRate*exactTolerance {
			t.Fatalf("chunk %d measured %.6f Mbps on a flat %.1f Mbps trace", i, bps/1e6, parityRate/1e6)
		}
	}
}

func testParity(t *testing.T, abr ABR) {
	t.Helper()
	v := excerptOf(t, "Soccer1", 8)
	weights := v.TrueSensitivity()
	simRes, err := player.Play(v, parityTrace(), mustAlg(t, abr), weights, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := streamVirtual(t, v, weights, &dash.Client{Algorithm: mustAlg(t, abr)})
	assertSamePlayback(t, simRes, sess)
}

func TestParityRateBased(t *testing.T) { testParity(t, ABRRateBased) }

func TestParitySenseiMPC(t *testing.T) { testParity(t, ABRSensei) }

func mustAlg(t *testing.T, a ABR) player.Algorithm {
	t.Helper()
	alg, err := NewAlgorithm(a)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

// TestParityScriptedEpochFlip extends the parity contract to the live
// sensitivity plane: a scripted mid-stream epoch flip — same flip chunk,
// same before/after weight vectors — must produce identical rung sequences
// from player.PlayWithSource and dash.Client over the same flat trace.
// Both take exactly one snapshot per chunk decision, so the same
// sensitivity.Script lands the flip on the same decision in both; any
// divergence means the client's refresh plumbing perturbs playback
// arithmetic.
func TestParityScriptedEpochFlip(t *testing.T) {
	v := excerptOf(t, "Soccer1", 8)

	// Before: true sensitivity. After: the same vector reversed — a
	// drastic mid-stream belief change that moves SENSEI-Fugu's plans.
	w1 := v.TrueSensitivity()
	w2, err := ReversedSensitivity(v)
	if err != nil {
		t.Fatal(err)
	}
	const flipAt = 3
	script := func() sensitivity.Source {
		s, err := sensitivity.NewScript(v.Name,
			sensitivity.ScriptStep{Weights: w1, Chunks: flipAt},
			sensitivity.ScriptStep{Weights: w2},
		)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	simRes, err := player.PlayWithSource(v, parityTrace(), mustAlg(t, ABRSensei), script(), player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The client is driven by its own copy of the script.
	sess := streamVirtual(t, v, w1, &dash.Client{Algorithm: mustAlg(t, ABRSensei), Sensitivity: script()})

	// The flip itself must be visible and land on the same chunk in both.
	want := make([]uint64, v.NumChunks())
	for i := range want {
		want[i] = 1
		if i >= flipAt {
			want[i] = 2
		}
	}
	if !reflect.DeepEqual(simRes.ChunkEpochs, want) || !reflect.DeepEqual(sess.ChunkEpochs, want) {
		t.Fatalf("epoch ledgers diverge from %v: simulator %v, client %v", want, simRes.ChunkEpochs, sess.ChunkEpochs)
	}
	assertSamePlayback(t, simRes, sess)
}

// TestWallClockParitySmoke is the one proof left on the wall clock, over
// loopback TCP like dashserver/dashclient: it asserts the tolerance
// contract — the shaper never delivers faster than the trace (every chunk
// ≤ 1.2× its rate), pacing is real (the median chunk ≥ 0.8× it), stalls
// within stallTolerance of the simulator's — and deliberately not the rung
// sequence, which on a wall clock also records which side of a planner
// boundary the scheduler's noise landed on.
//
// Only the upper bound holds per chunk. CPU contention can only lengthen a
// download, and origin.Shaper.Throttle syncs its cursor forward to now, so
// an overslept chunk earns no credit: one starved chunk reads slow (1.96
// Mbps on this 2.5 Mbps trace under CPU contention) without the shaper
// being wrong. The median still catches a shaper that paces too slowly.
func TestWallClockParitySmoke(t *testing.T) {
	// The shaped transfer must dwarf per-request protocol overhead (more so
	// under the race detector) for the samples to stay inside the bounds.
	scale := 0.05
	if raceEnabled {
		scale = 0.15
	}
	v := excerptOf(t, "Soccer1", 8)
	tr := parityTrace()
	weights := v.TrueSensitivity()
	simRes, err := player.Play(v, tr, mustAlg(t, ABRRateBased), weights, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := parityOrigin(t, v, weights, nil, scale).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &dash.Client{BaseURL: "http://" + addr, Algorithm: mustAlg(t, ABRRateBased)}
	sess, err := client.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}

	for i, bps := range sess.ThroughputBps {
		if bps > parityRate*1.2 {
			t.Fatalf("chunk %d measured %.2f Mbps on a flat %.1f Mbps trace", i, bps/1e6, parityRate/1e6)
		}
	}
	if med := stats.Percentile(sess.ThroughputBps, 0.5); med < parityRate*0.8 {
		t.Fatalf("median chunk measured %.2f Mbps on a flat %.1f Mbps trace", med/1e6, parityRate/1e6)
	}
	if d := math.Abs(simRes.RebufferSec - sess.RebufferVirtualSec); d > stallTolerance {
		t.Fatalf("stall totals diverge by %.3fs (tolerance %.2f): simulator %.3f, client %.3f",
			d, stallTolerance, simRes.RebufferSec, sess.RebufferVirtualSec)
	}
	for i := 1; i < len(sess.Rendering.StallSec); i++ {
		if d := math.Abs(simRes.Rendering.StallSec[i] - sess.Rendering.StallSec[i]); d > stallTolerance {
			t.Fatalf("stall placement diverges at chunk %d: simulator %.3f, client %.3f",
				i, simRes.Rendering.StallSec[i], sess.Rendering.StallSec[i])
		}
	}
}
