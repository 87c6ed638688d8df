package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sensei/internal/fleet"
	"sensei/internal/ingest"
	"sensei/internal/stats"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// fleetLoad is fleet.Run on a virtual clock: the product's end-to-end path
// (planner, dash.Client, loopback HTTP, origin, shaper, vclock, reconcile).
// With chaos set it adds the fault, event and rating planes, which turn
// keep-alives off and make the same layers work differently.
type fleetLoad struct {
	chaos  bool
	in     *inputs
	videos []*video.Video
	traces map[string]*trace.Trace
	laps   lapClock
	// seeds draws a fresh fault schedule and rater pool for every chaos
	// rep, so that a run averages over its reps' schedules instead of
	// repeating one: with one schedule per run, allocs_per_segment differed
	// by 2 % between seeds, all of it the luck of that one schedule.
	seeds *stats.RNG

	// bootReconcileMs holds, per rep, fleet.Run's wall time outside the
	// sessions themselves (boot, drain, /stats, reconcile, teardown).
	bootReconcileMs []float64
}

func (f *fleetLoad) setup(in *inputs) error {
	f.in = in
	f.traces = in.fleetTraces()
	f.laps.open = map[uint64]time.Time{}
	f.seeds = stats.NewRNG(in.chaosSeed)
	f.bootReconcileMs = make([]float64, 0, maxReps)
	var err error
	f.videos, err = in.fleetVideos()
	return err
}

func (f *fleetLoad) config() fleet.Config {
	cfg := fleet.Config{
		Sessions:   f.in.size.FleetSessions,
		Videos:     f.videos,
		Traces:     f.traces,
		TimeScales: []float64{1},
		Workers:    f.in.size.W,
		Profile:    trueSensitivity,
	}
	if f.chaos {
		cfg.Sessions = f.in.size.ChaosSessions
		cfg.Chaos = &fleet.ChaosSpec{Seed: f.seeds.Uint64() | 1} // 0 would select fleet's default
		cfg.Events = &fleet.EventsSpec{}
		cfg.Raters = &fleet.RaterSpec{Seed: f.seeds.Uint64() | 1, Ingest: chaosIngest()}
	}
	return cfg
}

// chaosIngest is the autopilot tuning of fleet_chaos: fleet's defaults with
// the evidence floor lowered from 12 ratings per window to 4. A rep has two
// sessions per video, which never reach 12, and a closed loop that never
// closes would leave the epoch-bump and weight-re-fetch path unmeasured.
func chaosIngest() *ingest.Config {
	c := fleet.FleetIngestDefaults()
	c.MinSamples = 4
	return &c
}

func (f *fleetLoad) rep() (repStats, error) {
	cfg := f.config()
	f.laps.Clock = vclock.NewVirtual()
	clear(f.laps.open)
	cfg.Clock = &f.laps
	t0 := time.Now()
	rep, err := fleet.Run(context.Background(), cfg)
	wall := time.Since(t0)
	if err != nil {
		return repStats{}, err
	}
	f.bootReconcileMs = append(f.bootReconcileMs, (wall.Seconds()-rep.ElapsedSec)*1e3)
	r := repStats{
		Segments:  rep.SegmentsDownloaded,
		Bytes:     rep.BytesDownloaded,
		Attempted: int64(rep.Sessions),
		Failed:    int64(rep.Failed),
	}
	if rep.Failed != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d of %d sessions failed", rep.Failed, rep.Sessions))
	}
	if !rep.Reconciliation.Ok {
		if r.Failed == 0 {
			r.Failed = int64(rep.Sessions) // an unreconciled run vouches for no session
		}
		r.Problems = append(r.Problems, fmt.Sprintf("fleet did not reconcile: %v", rep.Reconciliation.Problems))
	}
	if !f.chaos {
		// On the virtual clock a fault-free fleet is a pure function of
		// its inputs: every rep must move the same bytes.
		r.Digest = uint64(r.Segments)<<40 ^ uint64(r.Bytes)
	}
	return r, nil
}

func (f *fleetLoad) drainOps(dst *hist) {
	f.laps.mu.Lock()
	defer f.laps.mu.Unlock()
	dst.merge(&f.laps.ops)
	f.laps.ops.reset()
}

func (f *fleetLoad) close() error { return nil }

// lapClock times each fleet session from the outside. fleet.Run has no
// per-request hook with tracing off, but it brackets every session with
// Clock.Enter/Exit on the session's own goroutine (the vclock participant
// contract), so the wall time between the two is one session, join to
// leave — the fleet workloads' op. Sleep and Now go straight through.
type lapClock struct {
	vclock.Clock
	mu   sync.Mutex
	open map[uint64]time.Time // goroutine id -> Enter time
	ops  hist
}

func (c *lapClock) Enter() {
	c.Clock.Enter()
	id, now := goid(), time.Now()
	c.mu.Lock()
	c.open[id] = now
	c.mu.Unlock()
}

func (c *lapClock) Exit() {
	id, now := goid(), time.Now()
	c.mu.Lock()
	// The ingest autopilot enters on a request goroutine and exits on its
	// worker: an Exit without an Enter on the same goroutine is not a lap.
	if t0, ok := c.open[id]; ok {
		c.ops.add(int64(now.Sub(t0)))
		delete(c.open, id)
	}
	c.mu.Unlock()
	c.Clock.Exit()
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack ("goroutine 123 [running]:"). Two calls per session; it exists
// only to pair a session's Exit with its own Enter.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
