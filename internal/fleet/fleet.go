// Package fleet is the streaming-fleet harness: it drives N concurrent
// dash.Clients — a deterministic mix of catalog videos, throughput traces,
// timescales and ABR algorithms — against one multi-tenant origin.Origin
// (the clients' Caller, taking each request as a typed Call), captures every
// session's outcome, and reconciles the client-side byte and segment
// ledgers against the origin's /stats exactly.
//
// The harness is the scenario generator that makes client/simulator
// divergence observable at scale: a single e2e test exercises one client on
// one trace, while a fleet run covers the cross product the paper's
// evaluation (§7) sweeps and the ROADMAP's production-scale story needs.
// Scheduling is bounded fork-join via internal/par; the mix assignment is a
// pure function of the session index, so a fleet run's workload is
// reproducible regardless of worker count. The whole run shares one
// discrete-event virtual clock, so a fleet spanning hours of stream time
// takes as long as its CPU work.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sensei/internal/abr"
	"sensei/internal/chaos"
	"sensei/internal/dash"
	"sensei/internal/hashx"
	"sensei/internal/ingest"
	"sensei/internal/mos"
	"sensei/internal/origin"
	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/qlog"
	"sensei/internal/router"
	"sensei/internal/sensitivity"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// ABR names a fleet-selectable adaptation algorithm.
type ABR string

// The ABR algorithms a fleet can mix.
const (
	ABRRateBased ABR = "ratebased"
	ABRBOLA      ABR = "bola"
	ABRMPC       ABR = "mpc"
	ABRSensei    ABR = "sensei-mpc"
)

// AllABRs returns every fleet-selectable algorithm, in mix order.
func AllABRs() []ABR { return []ABR{ABRRateBased, ABRBOLA, ABRMPC, ABRSensei} }

// NewAlgorithm builds a fresh algorithm instance for one session. Each
// session gets its own instance so per-session planner state never aliases
// across goroutines.
func NewAlgorithm(a ABR) (player.Algorithm, error) {
	switch a {
	case ABRRateBased:
		return abr.NewRateRule(), nil
	case ABRBOLA:
		return abr.NewBOLA(), nil
	case ABRMPC:
		return abr.NewFugu(), nil
	case ABRSensei:
		return abr.NewSenseiFugu(), nil
	}
	return nil, fmt.Errorf("fleet: unknown abr %q (want %v)", a, AllABRs())
}

// Config describes a fleet run: the origin's catalog and traces, plus the
// session mix. Session k's video/trace/abr/timescale slot is a pure
// function of k — the full cross product of the four mix dimensions is
// walked with a coprime stride (see assign), so every combination is
// covered and no dimension is confounded with another. Zero values pick
// production-ish defaults documented per field.
type Config struct {
	// Sessions is the fleet size (required, ≥ 1).
	Sessions int
	// Videos is the origin catalog; the mix spreads sessions across it.
	Videos []*video.Video
	// Traces are the origin's named throughput traces; the mix iterates
	// them in sorted-name order.
	Traces map[string]*trace.Trace
	// ABRs is the algorithm mix (default AllABRs()).
	ABRs []ABR
	// TimeScales is the session timescale mix (default {0.02}): a session
	// replays its trace at that multiple of real-time pacing. It scales only
	// simulated time — how much of it a session spans — not how long the
	// run takes.
	TimeScales []float64
	// Workers bounds concurrently running sessions; 0 runs the whole fleet
	// at once. A session beyond the bound starts, in simulated time, when a
	// worker frees up; the bound is about memory and scheduler pressure.
	Workers int
	// MaxBufferSec caps each client's playback buffer (0 = dash default).
	MaxBufferSec float64
	// Profile computes sensitivity weights on first manifest request; nil
	// serves weightless manifests (sensitivity-aware ABRs then plan
	// unweighted).
	Profile origin.ProfileFunc
	// Refresh optionally schedules a mid-run, catalog-wide sensitivity
	// refresh: once every session has joined (plus Refresh.After of grace),
	// new weights are published for every video, bumping each profile's
	// epoch. Active sessions detect the bump on their next segment
	// response and adopt the new snapshot before their following decision;
	// the report breaks QoE out per epoch cohort and reconciles the epochs
	// against /stats.
	Refresh *RefreshSpec
	// Raters optionally closes the feedback loop: every session gets a
	// mos-backed rater persona posting one 1–5 score per rendered chunk to
	// the origin's POST /rating, and the origin's ingest autopilot converts
	// accumulated evidence into autonomous epoch bumps mid-run — no
	// operator refresh involved. The report gains an ingest ledger
	// reconciled exactly against /stats. Requires Profile.
	Raters *RaterSpec
	// Chaos optionally enables the origin's fault-injection plane and
	// turns every client resilient: sessions retry with a bounded, jittered
	// backoff budget, and the report gains a two-sided fault ledger that
	// reconciliation matches exactly against /stats. Nil runs fault-free.
	Chaos *ChaosSpec
	// Events optionally turns on the qlog event plane for the whole run:
	// every client traces into its own bounded ring (drained into the
	// session's outcome after Leave), the origin mirrors the server side
	// into per-session rings behind GET /events, and one shared metrics
	// registry collects both planes behind GET /metrics. Reconciliation
	// then gains a third independent witness: the per-session event tallies
	// must agree exactly with the client ledgers, which already agree with
	// origin /stats. Nil runs untraced.
	Events *EventsSpec
	// OriginShards, when > 1, runs the fleet against a multi-origin
	// router (internal/router) fronting that many origin shards behind one
	// handler instead of a single origin. Sessions spread across shards by
	// consistent hash on the session ID; reconciliation additionally proves
	// the merged /stats equals the sum of the per-shard ledgers and that no
	// shard leaks a session. 0 or 1 runs the classic single origin. Raters
	// require a single origin (the ingest autopilot is not shard-aware).
	OriginShards int
	// Clock is the run's virtual clock, or an observer wrapping one; nil
	// builds a fresh vclock.Virtual. The origin's shaped delivery, chaos
	// stalls and idle accounting, every client's waits and download
	// measurements, and the refresh watcher all read it. Sleeps complete
	// the instant every in-flight participant is parked.
	Clock vclock.Clock
	// Logf receives origin log lines; nil discards them.
	Logf func(format string, args ...any)
	// KeepOutcomes retains the per-session outcome rows on the report
	// (they are always collected; this controls whether Report.Outcomes is
	// populated — large fleets may not want N rows in a JSON report).
	KeepOutcomes bool
}

// ReversedSensitivity returns the video's true per-chunk sensitivity
// reversed — a valid weight vector maximally different from the profiled
// one, the canonical "refreshed belief" for refresh scenarios (fleetsim's
// -refresh flag, the refresh and parity suites).
func ReversedSensitivity(v *video.Video) ([]float64, error) {
	w := v.TrueSensitivity()
	out := make([]float64, len(w))
	for i := range w {
		out[i] = w[len(w)-1-i]
	}
	return out, nil
}

// raterPoolSize sizes the shared rater pool sessions draw their personas
// from.
const raterPoolSize = 512

// RaterSpec configures the closed-loop scenario's rater cohorts and the
// origin's ingest autopilot.
type RaterSpec struct {
	// Seed keys the shared rater pool (default 0x5e11). The whole fleet's
	// ratings are a pure function of (seed, session index, playback).
	Seed uint64
	// Ingest overrides the origin's autopilot tuning; nil uses
	// FleetIngestDefaults().
	Ingest *ingest.Config
}

// FleetIngestDefaults returns autopilot tuning matched to fleet harness
// scales: runs span seconds of simulated time at aggressive timescales, so
// the gate's sample floor, refresh interval and hysteresis are proportionally
// tighter than the production defaults — autonomous bumps must be able to
// fire while the fleet is still mid-stream.
func FleetIngestDefaults() ingest.Config {
	return ingest.Config{
		WindowChunks:   4,
		MinSamples:     12,
		MinInterval:    200 * time.Millisecond,
		MinWeightDelta: 0.05,
		Gain:           2,
		DecayHalfLife:  10 * time.Minute, // effectively no decay within a run
	}
}

// Fleet chaos defaults: the uniform per-endpoint fault rate and policy
// seed used when a ChaosSpec leaves them zero.
const (
	DefaultChaosSeed uint64  = 0xc4a05
	DefaultChaosRate float64 = 0.08
)

// ChaosSpec configures a fleet run's fault plane: the origin-side
// injection policy and the client-side retry posture. The whole run is
// replayable — faults are a pure function of (Seed, session slot,
// endpoint kind, request sequence), independent of goroutine scheduling.
type ChaosSpec struct {
	// Seed keys every fault decision (default DefaultChaosSeed).
	Seed uint64 `json:"seed,omitempty"`
	// Rate is the uniform per-request fault probability applied to every
	// endpoint kind when Endpoints is nil (default DefaultChaosRate).
	Rate float64 `json:"rate,omitempty"`
	// Endpoints overrides the uniform rate with per-endpoint fault specs.
	Endpoints map[chaos.Kind]chaos.Spec `json:"endpoints,omitempty"`
	// MaxConsecutive caps the fault streak per (session, endpoint) stream
	// (0 = chaos.DefaultMaxConsecutive). Keep it below the retry budget or
	// sessions will legitimately die.
	MaxConsecutive int `json:"max_consecutive,omitempty"`
	// StallDelay is how long an injected stall holds a request before
	// aborting it (0 = chaos.DefaultStallDelay).
	StallDelay time.Duration `json:"stall_delay,omitempty"`
	// Retry is the per-client backoff posture; its zero value means the
	// dash defaults (budget 4, 25ms base). Each session derives its own
	// jitter seed from Retry.Seed and its slot.
	Retry par.Backoff `json:"retry,omitempty"`
}

// Policy materializes the origin-side injection policy, defaults applied.
func (s *ChaosSpec) Policy() chaos.Policy {
	seed := s.Seed
	if seed == 0 {
		seed = DefaultChaosSeed
	}
	var p chaos.Policy
	if len(s.Endpoints) > 0 {
		eps := make(map[chaos.Kind]chaos.Spec, len(s.Endpoints))
		for k, spec := range s.Endpoints {
			eps[k] = spec
		}
		p = chaos.Policy{Seed: seed, Endpoints: eps}
	} else {
		rate := s.Rate
		if rate == 0 {
			rate = DefaultChaosRate
		}
		p = chaos.Uniform(seed, rate)
	}
	p.MaxConsecutive = s.MaxConsecutive
	p.StallDelay = s.StallDelay
	return p
}

// chaosKey is the stable per-slot stream key: faults depend on it, not on
// origin-assigned session IDs, so a run replays regardless of join order.
func chaosKey(k int) string { return fmt.Sprintf("s%04d", k) }

// retryFor derives session k's backoff, de-correlating jitter across the
// fleet so retry storms don't synchronize.
func (s *ChaosSpec) retryFor(k int) par.Backoff {
	b := s.Retry
	b.Seed ^= s.Seed ^ ((uint64(k) + 1) * hashx.Gamma)
	return b
}

// EventsSpec configures the fleet's qlog event plane.
type EventsSpec struct {
	// KeepTraces retains each session's full drained event list on its
	// outcome row (the per-kind tally is always kept). Large fleets may not
	// want N full traces in a JSON report.
	KeepTraces bool `json:"keep_traces,omitempty"`
}

// RefreshSpec schedules the fleet's mid-run weight refresh.
type RefreshSpec struct {
	// After is the grace, in simulated time, between the last session join
	// and the refresh publish. Keep it short relative to session duration so
	// every session is still mid-stream when the bump lands.
	After time.Duration
	// Weights computes the refreshed vector for a video (required).
	Weights func(v *video.Video) ([]float64, error)
}

// RefreshOutcome records what the scheduled refresh actually did.
type RefreshOutcome struct {
	// Applied is true once the new weights were published for every video.
	Applied bool `json:"applied"`
	// AppliedSec is when the last publish landed, on the run clock.
	AppliedSec float64 `json:"applied_sec"`
	// Epochs maps video name to its post-refresh profile epoch.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	// SessionsConverged counts completed sessions that finished on their
	// video's refreshed epoch; SessionsFinishedEarly counts those that
	// completed around the bump and so never had a decision left to adopt
	// it with. A scenario sized to keep every session mid-stream at the
	// bump (the refresh smoke) expects Converged == fleet size and
	// FinishedEarly == 0.
	SessionsConverged     int `json:"sessions_converged"`
	SessionsFinishedEarly int `json:"sessions_finished_early"`
	// Err is set when the refresh could not be applied.
	Err string `json:"err,omitempty"`
}

// assignment is the session mix slot for one index.
type assignment struct {
	video     *video.Video
	trace     string
	abr       ABR
	timeScale float64
}

func (c *Config) validate() error {
	if c.Sessions < 1 {
		return fmt.Errorf("fleet: need at least one session, got %d", c.Sessions)
	}
	if len(c.Videos) == 0 {
		return fmt.Errorf("fleet: no videos configured")
	}
	if len(c.Traces) == 0 {
		return fmt.Errorf("fleet: no traces configured")
	}
	for _, a := range c.ABRs {
		if _, err := NewAlgorithm(a); err != nil {
			return err
		}
	}
	for _, ts := range c.TimeScales {
		if ts <= 0 {
			return fmt.Errorf("fleet: invalid timescale %v", ts)
		}
	}
	if c.Refresh != nil {
		if c.Refresh.Weights == nil {
			return fmt.Errorf("fleet: refresh scheduled without a weights function")
		}
		if c.Refresh.After < 0 {
			return fmt.Errorf("fleet: negative refresh delay %v", c.Refresh.After)
		}
		if c.Profile == nil {
			// An epoch bump on a weightless catalog would be the sessions'
			// first profile; legal at the origin, but the scenario exists to
			// exercise mid-stream refresh of already-weighted sessions.
			return fmt.Errorf("fleet: refresh scheduled without a profile function")
		}
	}
	if c.Chaos != nil {
		p := c.Chaos.Policy()
		if err := p.Validate(); err != nil {
			return fmt.Errorf("fleet: chaos: %w", err)
		}
		ceiling := p.MaxConsecutive
		if ceiling <= 0 {
			ceiling = chaos.DefaultMaxConsecutive
		}
		if budget := c.Chaos.retryFor(0).Budget(); ceiling > budget {
			return fmt.Errorf("fleet: chaos fault ceiling %d exceeds the retry budget %d — sessions would be lost by design",
				ceiling, budget)
		}
	}
	if c.OriginShards < 0 {
		return fmt.Errorf("fleet: negative origin shard count %d", c.OriginShards)
	}
	if c.OriginShards > 1 && c.Raters != nil {
		return fmt.Errorf("fleet: rater cohorts need the ingest autopilot, which is not shard-aware; drop OriginShards or Raters")
	}
	if c.Raters != nil {
		if c.Profile == nil {
			// Autonomous refreshes re-profile chunk windows with the profile
			// function; a weightless catalog has nothing to refresh.
			return fmt.Errorf("fleet: rater cohorts scheduled without a profile function")
		}
	}
	return nil
}

// traceNames returns the trace mix in deterministic (sorted) order.
func (c *Config) traceNames() []string {
	names := make([]string, 0, len(c.Traces))
	for name := range c.Traces {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// assign is the pure session-index → mix-slot function. It walks the full
// video×trace×abr×timescale cross product with a stride coprime to its
// size: any window of (product-size) sessions covers every combination
// exactly once, and — unlike naive per-dimension round-robin — no dimension
// is confounded with another. (With 4 ABRs and 2 traces, shared-modulus
// round-robin pins each ABR to one trace forever, which silently turns the
// per-ABR cohort comparison into a trace comparison.)
func (c *Config) assign(k int, traceNames []string, abrs []ABR, scales []float64) assignment {
	nV, nT, nA, nS := len(c.Videos), len(traceNames), len(abrs), len(scales)
	m := nV * nT * nA * nS
	idx := (k % m) * mixStride(m) % m
	a := assignment{video: c.Videos[idx%nV]}
	idx /= nV
	a.trace = traceNames[idx%nT]
	idx /= nT
	a.abr = abrs[idx%nA]
	idx /= nA
	a.timeScale = scales[idx%nS]
	return a
}

// mixStride returns a multiplier coprime with m near the golden-ratio
// fraction of m, so k*stride mod m is a low-discrepancy permutation of the
// mix space.
func mixStride(m int) int {
	if m <= 2 {
		return 1
	}
	s := int(float64(m)*0.6180339887) | 1
	for gcd(s, m) != 1 {
		s += 2
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// backend is the serving plane the harness boots, satisfied by both
// *origin.Origin and *router.Router: the clients reach it through its
// typed Call (or, in the transport-parity proof, its ServeHTTP behind a
// socket), /stats through Call too, the refresh watcher polls
// SessionsCreated, the scheduled refresh publishes through PublishWeights,
// and the report drains/collects the ingest, chaos and event planes.
type backend interface {
	wire.Caller
	Close()
	SessionsCreated() int64
	PublishWeights(videoName string, weights []float64) (*sensitivity.Profile, error)
	DrainIngest(ctx context.Context) error
	ChaosJournal() []chaos.Event
	DrainProcessTally() qlog.Tally
}

// reach is how a run's clients get to the backend: dial points a client
// at it, and done releases whatever reach started.
type reach func(b backend) (dial func(*dash.Client), done func())

// inProcess is the fleet's request plane: the backend is each client's
// Caller, so dash.Client hands it each request as a typed Call, answered
// by the origin's core on the goroutine of the session that issued it
// (DESIGN.md "Typed origin core and its two adapters").
func inProcess(b backend) (func(*dash.Client), func()) {
	return func(c *dash.Client) { c.Caller = b }, func() {}
}

// Run executes the fleet against a freshly built origin (or router) and
// returns the aggregate report. Individual session failures are recorded
// as outcomes (and fail reconciliation), not returned as errors; Run errors
// only when the harness itself cannot run (bad config, unreadable /stats).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	return run(ctx, cfg, inProcess)
}

// run is Run with its clients reaching the backend through via. The seam
// exists for the transport-equivalence proof, which runs the same fleet
// over loopback TCP.
func run(ctx context.Context, cfg Config, via reach) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	abrs := cfg.ABRs
	if len(abrs) == 0 {
		abrs = AllABRs()
	}
	scales := cfg.TimeScales
	if len(scales) == 0 {
		scales = []float64{0.02}
	}
	traceNames := cfg.traceNames()

	maxSessions := origin.DefaultMaxSessions
	if cfg.Sessions > maxSessions {
		maxSessions = cfg.Sessions
	}
	// The closed loop: rater personas on the client side, the ingest
	// autopilot on the origin side.
	var ingestCfg *ingest.Config
	var raters []dash.Rater
	if cfg.Raters != nil {
		ic := FleetIngestDefaults()
		if cfg.Raters.Ingest != nil {
			ic = *cfg.Raters.Ingest
		}
		ingestCfg = &ic
		seed := cfg.Raters.Seed
		if seed == 0 {
			seed = 0x5e11
		}
		pop, err := mos.NewPopulation(mos.PopulationConfig{Size: raterPoolSize, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("fleet: rater pool: %w", err)
		}
		raters = make([]dash.Rater, cfg.Sessions)
		for k := range raters {
			if raters[k], err = pop.SessionRater(k); err != nil {
				return nil, fmt.Errorf("fleet: rater for session %d: %w", k, err)
			}
		}
	}
	var chaosPolicy *chaos.Policy
	if cfg.Chaos != nil {
		p := cfg.Chaos.Policy()
		chaosPolicy = &p
	}
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.NewVirtual()
	}
	// The event plane: one shared registry for the whole run — clients
	// observe their decision/download/stall families into the same padded
	// atomics the origin's serving families land in, so a /metrics scrape
	// (or the report) sees both planes at once.
	var metrics *qlog.Metrics
	if cfg.Events != nil {
		metrics = &qlog.Metrics{}
	}
	ocfg := origin.Config{
		Clock:        clock,
		Catalog:      cfg.Videos,
		Profile:      cfg.Profile,
		Traces:       cfg.Traces,
		DefaultTrace: traceNames[0],
		TimeScale:    scales[0],
		MaxSessions:  maxSessions,
		Ingest:       ingestCfg,
		Chaos:        chaosPolicy,
		Logf:         cfg.Logf,
	}
	if cfg.Events != nil {
		ocfg.Events = &origin.EventsConfig{Metrics: metrics}
	}
	// The serving plane under test: a single origin, or — when the run
	// proves scale-out — a consistent-hash router fronting OriginShards
	// origin shards behind the same protocol. The harness drives both
	// through the backend interface; the clients cannot tell the difference.
	var o backend
	if cfg.OriginShards > 1 {
		rt, err := router.New(router.Config{Shards: cfg.OriginShards, Origin: ocfg})
		if err != nil {
			return nil, err
		}
		o = rt
	} else {
		org, err := origin.New(ocfg)
		if err != nil {
			return nil, err
		}
		o = org
	}
	defer o.Close()
	dial, done := via(o)
	defer done()

	workers := cfg.Workers
	if workers <= 0 || workers > cfg.Sessions {
		workers = cfg.Sessions
	}

	outcomes := make([]SessionOutcome, cfg.Sessions)
	startWall := time.Now()
	startClock := clock.Now()
	// The first wave starts together: no session (and not the refresh
	// watcher) proceeds until every worker has registered its first
	// session with the clock. Otherwise the clock advances through the
	// early starters' sleeps while a worker goroutine is still waiting
	// to be scheduled, and that worker's session starts late by however far
	// the others had got — a different run every time.
	var firstWave sync.WaitGroup
	firstWave.Add(workers)

	// The scheduled mid-run refresh: wait for every session to join, give
	// them Refresh.After to get into their streams, then publish new
	// weights for the whole catalog. The watcher races the fleet on
	// purpose — that is the scenario — but never outlives it: fleetDone
	// aborts the wait if the fleet drains (or dies) before the bump.
	var refreshOut *RefreshOutcome
	fleetDone := make(chan struct{})
	refreshDone := make(chan struct{})
	if cfg.Refresh != nil {
		refreshOut = &RefreshOutcome{Epochs: map[string]uint64{}}
		// The watcher waits on the run clock, so the bump lands at a
		// simulated instant. Its waits fold fleetDone into a context: the
		// fleet draining (or the caller canceling) aborts the sleep in
		// flight.
		watchCtx, cancelWatch := context.WithCancel(ctx)
		go func() {
			select {
			case <-fleetDone:
			case <-watchCtx.Done():
			}
			cancelWatch()
		}()
		// The watcher is a registered clock participant: its sleeps park it
		// like any session's shaped wait, so the clock advances through
		// the join poll and the grace window instead of deadlocking
		// on a non-participant's timer. It registers here, before the first
		// wave can be released, so that its polls tick from the run's first
		// instant however late its goroutine is first scheduled.
		clock.Enter()
		// The watcher goroutine carries a pprof label like the session
		// workers, so a profile of a refresh run attributes its polling.
		go pprof.Do(watchCtx, pprof.Labels("subsystem", "fleet-refresh"), func(context.Context) {
			defer close(refreshDone)
			defer cancelWatch()
			defer clock.Exit()
			firstWave.Wait()
			abort := func(before string) {
				if ctx.Err() != nil {
					refreshOut.Err = "run canceled before the refresh fired: " + ctx.Err().Error()
				} else {
					// Every session finished first: there is nobody left to
					// refresh, and Run must not stall for the rest of the
					// wait.
					refreshOut.Err = "fleet drained before " + before
				}
			}
			// SessionsCreated is a lock-free counter read; a full Stats()
			// snapshot here would contend with segment serving on the
			// registry mutex 500 times a second for nothing. Sleep first: a
			// read at the run's first instant would race the joins, and on
			// a virtual clock that race would decide when the bump lands.
			for {
				if !clock.Sleep(watchCtx, 2*time.Millisecond) {
					abort("every session joined")
					return
				}
				if o.SessionsCreated() >= int64(cfg.Sessions) {
					break
				}
			}
			if !clock.Sleep(watchCtx, cfg.Refresh.After) {
				abort("the refresh fired")
				return
			}
			for _, v := range cfg.Videos {
				w, err := cfg.Refresh.Weights(v)
				if err != nil {
					refreshOut.Err = fmt.Sprintf("refresh weights for %q: %v", v.Name, err)
					return
				}
				p, err := o.PublishWeights(v.Name, w)
				if err != nil {
					refreshOut.Err = fmt.Sprintf("publishing refresh for %q: %v", v.Name, err)
					return
				}
				refreshOut.Epochs[v.Name] = p.Epoch
			}
			refreshOut.Applied = true
			refreshOut.AppliedSec = (clock.Now() - startClock).Seconds()
		})
	} else {
		close(refreshDone)
	}

	// The backend mirrors every injected fault onto a bounded process ring
	// that only the harness reads, so each finishing session empties it: a
	// run may inject any number of faults without overflowing it, and the
	// mirrored count is a witness reconciliation holds against the journal.
	var faultEvents atomic.Int64
	drainFaultEvents := func() {
		if cfg.Events == nil || cfg.Chaos == nil {
			return
		}
		t := o.DrainProcessTally()
		faultEvents.Add(t.Count(qlog.KindOriginFaultInjected))
	}

	// One label set and one uncancelable context serve the whole run:
	// labels per session would allocate for every session what only a
	// running CPU profile reads, and the per-session view is the event
	// traces' (fleetsim -events-dump). The labels ride in every session's
	// requests and on its goroutine, so a profile still tells session work
	// from the refresh watcher and the origin's janitor. detached carries
	// them with cancellation stripped, for each Leave and the ledger reads
	// after the fleet.
	sessionCtx := pprof.WithLabels(ctx, pprof.Labels("subsystem", "fleet-session"))
	detached := context.WithoutCancel(sessionCtx)

	// Workers always return nil: a failed session is a data point the
	// report must show, not a reason to abort the rest of the fleet.
	_ = par.ForEachN(cfg.Sessions, workers, func(k int) error {
		// Each session is one registered clock activity: simulated time
		// advances only while every in-flight session (and the watcher) is
		// parked in a clock sleep.
		clock.Enter()
		defer clock.Exit()
		// A single worker runs sessions on Run's own goroutine, whose
		// labels are ctx's again once the session is over.
		pprof.SetGoroutineLabels(sessionCtx)
		defer pprof.SetGoroutineLabels(ctx)
		if k < workers {
			firstWave.Done()
			firstWave.Wait()
		}
		a := cfg.assign(k, traceNames, abrs, scales)
		var rater dash.Rater
		if raters != nil {
			rater = raters[k]
		}
		var ring *qlog.Ring
		if cfg.Events != nil {
			ring = qlog.NewRing(qlog.DefaultRingCapacity)
		}
		outcomes[k] = runSession(sessionCtx, detached, dial, clock, cfg.MaxBufferSec, k, a, rater, cfg.Chaos, ring, metrics)
		outcomes[k].FinishedSec = (clock.Now() - startClock).Seconds()
		if ring != nil {
			outcomes[k].Events = drainOutcome(ring, cfg.Events.KeepTraces)
			drainFaultEvents()
		}
		return nil
	})
	drainFaultEvents()
	// Read the simulated span before teardown: the watcher's final polls
	// would otherwise keep nudging the clock after the last session
	// exits and inflate the figure.
	virtualElapsed := clock.Now() - startClock
	close(fleetDone)
	<-refreshDone
	// Let the ingest autopilot land every triggered refresh before the
	// ledger is read: a campaign still in flight would leave triggered >
	// applied and a moving ProfilesRefreshed, turning reconciliation into a
	// race. Cancellation is stripped, as for fetchStats — a timed-out
	// fleet still needs a settled report.
	if ingestCfg != nil {
		drainCtx, cancel := context.WithTimeout(detached, 30*time.Second)
		err := o.DrainIngest(drainCtx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("fleet: draining ingest autopilot: %w", err)
		}
	}
	elapsed := time.Since(startWall)

	st, shardSt, err := fetchStats(detached, o)
	if err != nil {
		return nil, err
	}
	rep := buildReport(outcomes, st, shardSt, refreshOut, metrics, faultEvents.Load(), elapsed, virtualElapsed, cfg.KeepOutcomes)
	if rep.Chaos != nil && chaosPolicy != nil {
		// The journal plus the seed make the whole run's fault schedule
		// independently reproducible via chaos.Policy.Replay.
		rep.Chaos.Seed = chaosPolicy.Seed
		rep.Chaos.Events = o.ChaosJournal()
	}
	return rep, nil
}

// runSession streams one fleet slot end to end on ctx and captures its
// outcome; it leaves on leaveCtx, which must not be canceled. Only under
// chaos does the client carry the slot's chaosKey. The caller must hold a
// clock registration (Enter) for the duration.
func runSession(ctx, leaveCtx context.Context, dial func(*dash.Client), clock vclock.Clock, maxBufferSec float64, k int, a assignment, rater dash.Rater, spec *ChaosSpec, ring *qlog.Ring, metrics *qlog.Metrics) SessionOutcome {
	out := SessionOutcome{
		Index:     k,
		Video:     a.video.Name,
		Trace:     a.trace,
		ABR:       string(a.abr),
		TimeScale: a.timeScale,
	}
	alg, err := NewAlgorithm(a.abr)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	c := &dash.Client{
		Algorithm:    alg,
		Trace:        a.trace,
		TimeScale:    a.timeScale,
		MaxBufferSec: maxBufferSec,
		Rater:        rater,
		Clock:        clock,
		Events:       ring,
		Metrics:      metrics,
	}
	dial(c)
	if spec != nil {
		c.ChaosKey = chaosKey(k)
		c.Retry = spec.retryFor(k)
	}
	captureResilience := func() {
		if spec != nil {
			res := c.Resilience()
			out.Resilience = &res
		}
	}
	sess, err := c.Stream(ctx, a.video)
	if err != nil {
		out.Err = err.Error()
		// Free the half-open session so the reconciliation failure reads
		// as "session N failed", not also as a leaked registry entry.
		_ = c.Leave(leaveCtx)
		captureResilience()
		return out
	}
	out.SessionID = sess.ID
	out.Rungs = sess.Rendering.Rungs
	out.BytesDownloaded = sess.BytesDownloaded
	out.Segments = len(sess.Rendering.Rungs)
	out.RebufferSec = sess.RebufferVirtualSec
	out.DownloadSec = sess.DownloadVirtualSec
	if sess.DownloadVirtualSec > 0 {
		out.ThroughputBps = float64(sess.BytesDownloaded*8) / sess.DownloadVirtualSec
	}
	out.QoE = abr.SessionQoE(sess.Rendering)
	out.TrueQoE = mos.TrueQoE(sess.Rendering)
	if sess.Weights != nil {
		out.HasWeights = true
		// Weighted QoE is scored with the final snapshot: after a refresh
		// the bumped weights are the system's current belief about this
		// video's sensitivity, old epochs included.
		out.WeightedQoE = abr.WeightedSessionQoE(sess.Rendering, sess.Weights)
	}
	out.WeightEpoch = sess.WeightEpoch
	if len(sess.ChunkEpochs) > 0 {
		out.FirstEpoch = sess.ChunkEpochs[0]
	}
	out.WeightRefreshes = sess.WeightRefreshes
	out.RatingsPosted = sess.RatingsPosted
	out.RatingsAccepted = sess.RatingsAccepted
	out.RatingsQuarantined = sess.RatingsQuarantined
	// Leave with cancellation stripped: a fleet deadline firing between a
	// session's last segment and its hang-up must not turn a completed
	// session into a spurious ledger mismatch (the origin answers a typed
	// leave at once, and its 409s are retried a bounded number of times).
	if err := c.Leave(leaveCtx); err != nil {
		out.Err = fmt.Sprintf("leave: %v", err)
	}
	captureResilience()
	return out
}

// fetchStats reads the serving plane's /stats ledger through its Call and
// decodes the wire encoding, like any external monitor would. ctx must not
// be canceled — a fleet that timed out still needs its report. The decode
// target is the router's payload, a superset of origin.Stats: a router
// additionally reports the per-shard ledgers behind its merge, which
// reconciliation cross-checks; a single origin simply leaves them empty.
func fetchStats(ctx context.Context, b wire.Caller) (origin.Stats, []origin.Stats, error) {
	var st router.Stats
	var a wire.Answer
	if err := b.Call(ctx, &wire.Call{Route: wire.RouteStats}, &a); err != nil {
		return st.Stats, nil, fmt.Errorf("fleet: fetching stats: %w", err)
	}
	if a.Status != 200 {
		return st.Stats, nil, fmt.Errorf("fleet: fetching stats: status %d: %s", a.Status, a.Body)
	}
	if err := json.Unmarshal(a.Body, &st); err != nil {
		return st.Stats, nil, fmt.Errorf("fleet: decoding stats: %w", err)
	}
	return st.Stats, st.Shards, nil
}
