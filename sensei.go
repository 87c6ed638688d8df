// Package sensei is the public API of this reproduction of "SENSEI:
// Aligning Video Streaming Quality with Dynamic User Sensitivity"
// (NSDI 2021).
//
// SENSEI improves video streaming by exploiting that users' sensitivity to
// low quality varies within a video: it profiles per-chunk sensitivity
// weights for each video via crowdsourced quality ratings, and feeds those
// weights into adaptive-bitrate (ABR) algorithms extended with a proactive
// rebuffering action, so that high quality lands on the moments users care
// about.
//
// The typical workflow is:
//
//	v, _ := sensei.VideoByName("Soccer1")
//	pop, _ := sensei.NewPopulation(sensei.PopulationConfig{Size: 30000, Seed: 1})
//	profile, _ := sensei.NewProfiler(pop).Profile(v)   // §4: crowdsourced weights
//	tr := sensei.GenerateTrace(sensei.TraceSpec{...})
//	res, _ := sensei.Stream(v, tr, sensei.NewSenseiFugu(), profile.Weights)
//	fmt.Println(sensei.TrueQoE(res.Rendering))
//
// Everything is deterministic given seeds and uses only the standard
// library. The real user studies, video assets and network traces of the
// paper are replaced by synthetic substrates documented in DESIGN.md.
//
// For the §6 deployment story there is a multi-tenant DASH origin: one
// process serves the whole catalog over real TCP, clients join sessions
// shaped by per-session trace cursors, and sensitivity weights are
// profiled lazily (once per video, persisted on disk) and delivered via
// the manifest's SenseiWeights extension. See NewDASHOrigin, NewDASHServer
// and DASHClient, or run cmd/dashserver and cmd/dashclient.
//
// Sensitivity is a live, versioned data plane: every profile is an
// immutable, epoch-stamped SensitivityProfile snapshot read through a
// SensitivitySource, the origin re-profiles chunk windows and publishes
// new epochs atomically (POST /refresh, PublishWeights), and active
// sessions — simulator and DASH client alike — adopt a refresh before
// their next decision. See StreamWithSource and FleetRefreshSpec.
//
// The loop closes end to end: clients rate each rendered chunk (DASHRater,
// backed by a Population's SessionRater), the origin's POST /rating feeds
// a sharded evidence aggregator (IngestConfig), and an autopilot converts
// accumulated MOS deltas into autonomous chunk-window refreshes once a
// confidence gate passes — no operator involved. Run the whole scenario
// with RunFleet and FleetRaterSpec, or `fleetsim -closedloop`.
package sensei

import (
	"context"

	"sensei/internal/abr"
	"sensei/internal/chaos"
	"sensei/internal/crowd"
	"sensei/internal/dash"
	"sensei/internal/fleet"
	"sensei/internal/ingest"
	"sensei/internal/mos"
	"sensei/internal/origin"
	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/qlog"
	"sensei/internal/qoe"
	"sensei/internal/router"
	"sensei/internal/sensitivity"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// Video is a source video with its synthetic content model (chunk sizes,
// attention/motion/complexity signals). See the video package.
type Video = video.Video

// VideoSpec declares a synthetic video to generate.
type VideoSpec = video.Spec

// Genre classifies catalog videos.
type Genre = video.Genre

// Catalog genres.
const (
	GenreSports    = video.GenreSports
	GenreGaming    = video.GenreGaming
	GenreNature    = video.GenreNature
	GenreAnimation = video.GenreAnimation
)

// VideoCatalog returns the paper's 16-video test set (Table 1).
func VideoCatalog() []*Video { return video.TestSet() }

// VideoByName generates one catalog video by its Table 1 name.
func VideoByName(name string) (*Video, error) { return video.ByName(name) }

// GenerateVideo builds a synthetic video from a spec.
func GenerateVideo(spec VideoSpec) *Video { return video.Generate(spec) }

// Trace is a network throughput time series.
type Trace = trace.Trace

// TraceSpec declares a synthetic trace.
type TraceSpec = trace.GenSpec

// Trace families.
const (
	TraceFCC   = trace.KindFCC
	TraceHSDPA = trace.KindHSDPA
)

// GenerateTrace synthesizes a throughput trace.
func GenerateTrace(spec TraceSpec) *Trace { return trace.Generate(spec) }

// EvaluationTraces returns the 10-trace §7 evaluation set.
func EvaluationTraces() []*Trace { return trace.TestSet() }

// Rendering describes a streamed playback (per-chunk rungs and stalls).
type Rendering = qoe.Rendering

// QoEModel predicts the QoE of a rendering.
type QoEModel = qoe.Model

// QoESample pairs a rendering with its ground-truth (rated) QoE.
type QoESample = qoe.Sample

// The QoE models compared in the paper's evaluation.
type (
	// KSQI is the knowledge-driven linear baseline.
	KSQI = qoe.KSQI
	// P1203 is the random-forest baseline.
	P1203 = qoe.P1203
	// LSTMQoE is the recurrent baseline.
	LSTMQoE = qoe.LSTMQoE
	// SenseiModel is the paper's per-chunk-reweighted QoE model (Eq. 2).
	SenseiModel = qoe.SenseiModel
)

// NewSenseiModel builds the SENSEI QoE model from a fallback base model and
// profiled per-video weights.
func NewSenseiModel(base *KSQI, weights map[string][]float64) *SenseiModel {
	return qoe.NewSenseiModel(base, weights)
}

// Population is a simulated pool of human raters.
type Population = mos.Population

// PopulationConfig controls rater synthesis.
type PopulationConfig = mos.PopulationConfig

// NewPopulation synthesizes a rater pool.
func NewPopulation(cfg PopulationConfig) (*Population, error) { return mos.NewPopulation(cfg) }

// TrueQoE returns the latent ground-truth QoE of a rendering — the
// asymptotic MOS real users would produce. Production systems cannot
// observe it directly; it exists for evaluation.
func TrueQoE(r *Rendering) float64 { return mos.TrueQoE(r) }

// CollectMOS rates a rendering with n raters and returns the normalized
// mean opinion score.
func CollectMOS(p *Population, r *Rendering, n int) (float64, error) {
	m, _, err := mos.CollectMOS(p, r, n, 0)
	return m, err
}

// Profiler runs the §4 crowdsourced profiling pipeline.
type Profiler = crowd.Profiler

// Profile is the result of profiling one video: weights plus the bill.
type Profile = crowd.Profile

// SchedulerParams tunes the two-step rendered-video scheduler (§4.3).
type SchedulerParams = crowd.SchedulerParams

// NewProfiler returns a profiler with the paper's default parameters.
func NewProfiler(pop *Population) *Profiler { return crowd.NewProfiler(pop) }

// Algorithm is an ABR policy driving chunk-by-chunk decisions.
type Algorithm = player.Algorithm

// PlayerState is the observable state handed to an Algorithm.
type PlayerState = player.State

// Decision is an Algorithm's choice for the next chunk.
type Decision = player.Decision

// PlayerConfig parameterizes a playback session.
type PlayerConfig = player.Config

// StreamResult summarizes a playback session.
type StreamResult = player.Result

// NewBBA returns the buffer-based baseline ABR.
func NewBBA() Algorithm { return abr.NewBBA() }

// NewBOLA returns the Lyapunov buffer-based baseline ABR.
func NewBOLA() Algorithm { return abr.NewBOLA() }

// NewRateRule returns the classic rate-based baseline ABR.
func NewRateRule() Algorithm { return abr.NewRateRule() }

// NewFugu returns the stochastic-MPC baseline ABR (Eq. 3 objective).
func NewFugu() Algorithm { return abr.NewFugu() }

// NewSenseiFugu returns SENSEI applied to the MPC algorithm: the Eq. 4
// weighted objective plus the proactive rebuffering action.
func NewSenseiFugu() Algorithm { return abr.NewSenseiFugu() }

// Pensieve is the reinforcement-learning ABR family (train before use).
type Pensieve = abr.Pensieve

// TrainConfig bounds Pensieve training.
type TrainConfig = abr.TrainConfig

// NewPensieve returns the RL baseline agent.
func NewPensieve(seed uint64) *Pensieve { return abr.NewPensieve(seed) }

// NewSenseiPensieve returns SENSEI applied to the RL agent.
func NewSenseiPensieve(seed uint64) *Pensieve { return abr.NewSenseiPensieve(seed) }

// Stream plays v over tr with the given algorithm. weights may be nil for
// sensitivity-blind algorithms.
func Stream(v *Video, tr *Trace, alg Algorithm, weights []float64) (*StreamResult, error) {
	return player.Play(v, tr, alg, weights, player.Config{})
}

// Live sensitivity plane: epoch-stamped immutable profile snapshots and
// the Source interface every consumer reads them through. A Frozen source
// reproduces the classic one-shot-profile behavior; a Versioned holder
// publishes refreshes atomically mid-session.
type (
	// SensitivityProfile is one immutable, epoch-stamped weight snapshot.
	SensitivityProfile = sensitivity.Profile
	// SensitivitySource yields profile snapshots plus change notification.
	SensitivitySource = sensitivity.Source
	// VersionedWeights is a live profile holder: lock-free snapshots for
	// readers, atomic epoch bumps for publishers.
	VersionedWeights = sensitivity.Versioned
)

// FreezeWeights wraps a plain weight slice as a constant single-epoch
// SensitivitySource (nil weights = the unprofiled epoch-0 placeholder).
func FreezeWeights(videoName string, weights []float64) SensitivitySource {
	return sensitivity.Freeze(videoName, weights)
}

// NewVersionedWeights starts a live profile holder for a video; Publish
// new weight vectors on it to bump the epoch mid-session.
func NewVersionedWeights(videoName string, weights []float64) *VersionedWeights {
	return sensitivity.NewVersioned(videoName, weights)
}

// StreamWithSource plays v over tr taking one sensitivity snapshot from
// src before every chunk decision, so a mid-session refresh (published on
// a VersionedWeights holder) reaches the ABR without tearing any plan.
func StreamWithSource(v *Video, tr *Trace, alg Algorithm, src SensitivitySource) (*StreamResult, error) {
	return player.PlayWithSource(v, tr, alg, src, player.Config{})
}

// SessionQoE scores a rendering with the content-blind kernel (the
// objective baseline ABRs optimize).
func SessionQoE(r *Rendering) float64 { return abr.SessionQoE(r) }

// WeightedSessionQoE scores a rendering with sensitivity weights (SENSEI's
// objective).
func WeightedSessionQoE(r *Rendering, weights []float64) float64 {
	return abr.WeightedSessionQoE(r, weights)
}

// DASH integration (§6), scaled to a multi-tenant origin: one process
// serves the whole catalog, each client joins a session whose egress is
// shaped by its own trace cursor, sensitivity weights are profiled lazily
// at most once per video (cached in memory and optionally on disk), and
// the manifest carries the SenseiWeights extension over real TCP.
type (
	// DASHOrigin is the multi-tenant origin: catalog, versioned weight
	// service and session control plane. It implements http.Handler.
	DASHOrigin = origin.Origin
	// DASHWeightService is the origin's versioned sensitivity-profile
	// service: singleflight cold-start profiling, on-disk persistence with
	// epochs, and atomic hot refresh (Publish / RefreshWindow).
	DASHWeightService = origin.WeightService
	// DASHOriginConfig assembles a DASHOrigin.
	DASHOriginConfig = origin.Config
	// DASHServer binds a DASHOrigin to a listener — Start opens a TCP one,
	// Serve takes any net.Listener — with graceful, context-based shutdown.
	DASHServer = origin.Server
	// DASHStats is the origin's /stats snapshot.
	DASHStats = origin.Stats
	// DASHProfileFunc computes weights for a video on first manifest
	// request (e.g. wrapping Profiler.Profile).
	DASHProfileFunc = origin.ProfileFunc
	// DASHClient joins an origin session and streams, driving an
	// Algorithm.
	DASHClient = dash.Client
	// DASHSession is the outcome of one streamed playback.
	DASHSession = dash.Session
	// DASHShaper throttles a session's egress to follow a trace.
	DASHShaper = dash.Shaper
	// MPD is the extended DASH manifest.
	MPD = dash.MPD
)

// NewDASHOrigin builds a multi-tenant origin from cfg. Close it when done
// (NewDASHServer ties it to the server's shutdown).
func NewDASHOrigin(cfg DASHOriginConfig) (*DASHOrigin, error) { return origin.New(cfg) }

// NewDASHServer binds o to a listener; Start it, then Shutdown(ctx) to
// drain in-flight segment streams.
func NewDASHServer(o *DASHOrigin) *DASHServer { return origin.NewServer(o) }

// Multi-origin scale-out: a consistent-hash router fronts N origin shards
// behind one listener without changing the client protocol. Sessions are
// sticky (the router mints the session ID and hashes it to its shard), the
// sensitivity plane is shared (one DASHWeightService across all shards, so
// a refresh bumps every shard's epoch at once), and GET /stats merges the
// per-shard ledgers exactly. See cmd/dashserver's -shards flag.
type (
	// DASHRouter fronts N origin shards with sticky consistent-hash
	// sessions and a shared weight plane.
	DASHRouter = router.Router
	// DASHRouterConfig assembles a DASHRouter: shard count plus the
	// per-shard origin template.
	DASHRouterConfig = router.Config
	// DASHRouterServer binds a DASHRouter to a listener (Start: TCP; Serve:
	// any net.Listener) with graceful, connection-draining shutdown.
	DASHRouterServer = router.Server
	// DASHRouterStats is the router's /stats payload: the merged DASHStats
	// plus the per-shard ledgers behind the merge.
	DASHRouterStats = router.Stats
)

// NewDASHRouter builds a router fronting cfg.Shards origin shards. Close it
// when done (NewDASHRouterServer ties it to the server's shutdown).
func NewDASHRouter(cfg DASHRouterConfig) (*DASHRouter, error) { return router.New(cfg) }

// NewDASHRouterServer binds rt to a listener; Start it, then Shutdown(ctx)
// to drain in-flight segment streams across every shard.
func NewDASHRouterServer(rt *DASHRouter) *DASHRouterServer { return router.NewServer(rt) }

// NewDASHShaper starts a shaper replaying tr; timeScale < 1 compresses
// wall-clock time (0.01 runs sessions 100x faster than real time).
// Origins build one per session internally.
func NewDASHShaper(tr *Trace, timeScale float64) (*DASHShaper, error) {
	return dash.NewShaper(tr, timeScale)
}

// BuildMPD renders the manifest for a video, embedding weights when
// non-nil.
func BuildMPD(v *Video, weights []float64) (*MPD, error) { return dash.BuildMPD(v, weights) }

// Closed feedback loop: the origin-side ingestion plane that turns live
// chunk ratings into autonomous sensitivity refreshes, plus the client
// hooks that produce the ratings.
type (
	// IngestConfig tunes the origin's feedback plane: chunk-window
	// granularity, the confidence gate (min samples, min inter-refresh
	// interval, hysteresis on the implied weight change) and the recency
	// half-life. Set it on DASHOriginConfig.Ingest to enable POST /rating.
	IngestConfig = ingest.Config
	// IngestStats is the feedback plane's counter snapshot, embedded in
	// DASHStats.Ingest: ratings accepted/quarantined/rejected and the
	// autonomous refresh counters.
	IngestStats = ingest.Stats
	// DASHRater is the DASH client's per-chunk feedback hook: score the
	// just-rendered chunk 1–5 or skip it. SessionRater is the standard
	// mos-backed implementation.
	DASHRater = dash.Rater
	// SessionRater is one streaming session's rating persona, drawn from a
	// Population (see Population.SessionRater): deterministic per
	// (population seed, session index), integrity-filtered like any survey
	// assignment.
	SessionRater = mos.SessionRater
	// FleetRaterSpec attaches rater cohorts to a fleet run, closing the
	// loop at scale: every session posts per-chunk ratings and the report
	// gains an ingest ledger reconciled exactly against /stats.
	FleetRaterSpec = fleet.RaterSpec
	// FleetIngestLedger sums the fleet's client-side rating counters.
	FleetIngestLedger = fleet.IngestLedger
)

// FleetIngestDefaults returns autopilot tuning matched to fleet-harness
// timescales (tighter gate than the production defaults in IngestConfig).
func FleetIngestDefaults() IngestConfig { return fleet.FleetIngestDefaults() }

// Fleet harness: drive N concurrent DASH clients — a deterministic mix of
// videos, traces, timescales and ABR algorithms — against one origin, and
// get an aggregate report whose client-side ledgers are reconciled exactly
// against the origin's /stats. This is the production-scale workload
// generator: run it to validate client/simulator parity under concurrency,
// compare ABR cohorts, or load-test the origin. See cmd/fleetsim.
type (
	// FleetConfig describes a fleet run (size, mix, workers).
	FleetConfig = fleet.Config
	// FleetReport is the aggregate outcome with percentiles, per-ABR and
	// per-trace cohorts, and the ledger reconciliation.
	FleetReport = fleet.Report
	// FleetOutcome is one session's captured result.
	FleetOutcome = fleet.SessionOutcome
	// FleetABR names a fleet-selectable adaptation algorithm.
	FleetABR = fleet.ABR
	// FleetRefreshSpec schedules a mid-run catalog-wide weight refresh:
	// once every session has joined (plus After of grace), new weights are
	// published and every active session must converge on the new epoch —
	// the report's reconciliation asserts it.
	FleetRefreshSpec = fleet.RefreshSpec
	// FleetRefreshOutcome reports what the scheduled refresh did.
	FleetRefreshOutcome = fleet.RefreshOutcome
)

// The ABR algorithms a fleet can mix.
const (
	FleetRateBased = fleet.ABRRateBased
	FleetBOLA      = fleet.ABRBOLA
	FleetMPC       = fleet.ABRMPC
	FleetSensei    = fleet.ABRSensei
)

// RunFleet executes a streaming fleet against a freshly built origin —
// the same http.Client and the same handler as over TCP, but each request
// calls the handler in-process instead of crossing a connection — and
// returns the aggregate report. Session failures are recorded in the
// report (and fail its reconciliation), not returned as errors.
func RunFleet(ctx context.Context, cfg FleetConfig) (*FleetReport, error) {
	return fleet.Run(ctx, cfg)
}

// Virtual time plane: every sleep and duration measurement in the origin,
// the DASH client, the chaos injector and the fleet harness goes through a
// Clock. The default (NewRealClock) is the wall clock; NewVirtualClock
// swaps in a discrete-event simulated clock that jumps straight to the
// next deadline whenever every registered participant is asleep, so a
// fleet spanning hours of stream time finishes in CPU-bound wall time with
// byte-identical ledgers. Set FleetConfig.Clock (or `fleetsim -vclock`);
// for an out-of-process origin set DASHOriginConfig.Clock together with
// DASHOriginConfig.ExternalClients (or `dashserver -vclock`).

// Clock is the time source threaded through the streaming stack.
type Clock = vclock.Clock

// NewRealClock returns the wall-clock Clock — the default everywhere a
// Clock field is left nil.
func NewRealClock() Clock { return vclock.NewReal() }

// NewVirtualClock returns a discrete-event simulated Clock. Share one
// instance across every component of a run; mixing clocks stalls the run,
// because quiescence is judged per instance.
func NewVirtualClock() Clock { return vclock.NewVirtual() }

// Chaos plane: seeded, replayable fault injection on the origin's wire
// protocol, and the client-side resilience contract that absorbs it —
// bounded retry budgets with jittered backoff, a graceful-degradation
// ladder, and per-session fault ledgers that reconcile exactly against the
// injector's counters.
type (
	// ChaosConfig is a fault-injection policy: a seed, per-endpoint fault
	// specs, the consecutive-fault ceiling and the stall/truncation
	// tuning. Set it on DASHOriginConfig.Chaos to mount the middleware;
	// nil keeps the origin entirely fault-free at zero cost.
	ChaosConfig = chaos.Policy
	// ChaosEndpointSpec is one endpoint kind's fault profile (rate and
	// allowed failure modes).
	ChaosEndpointSpec = chaos.Spec
	// ChaosKind names a faultable endpoint class; ChaosMode a failure
	// mode (error/reset/stall/truncate).
	ChaosKind = chaos.Kind
	ChaosMode = chaos.Mode
	// ChaosStats is the injector's counter snapshot, embedded in
	// DASHStats.Chaos.
	ChaosStats = chaos.Stats
	// ChaosEvent is one journaled fault, replayable from the policy seed
	// via ChaosConfig.Replay.
	ChaosEvent = chaos.Event
	// RetryBackoff is the client-side retry posture: a bounded attempt
	// budget with deterministic, jittered exponential delays. Set it on
	// DASHClient.Retry.
	RetryBackoff = par.Backoff
	// ResilienceStats is a DASH client's per-session fault ledger: every
	// transient failure survived and every degradation taken.
	ResilienceStats = dash.Resilience
	// FleetChaosSpec attaches the fault plane to a fleet run; the report
	// gains a FleetChaosLedger reconciled per endpoint kind.
	FleetChaosSpec = fleet.ChaosSpec
	// FleetChaosLedger is the fleet's two-sided fault ledger.
	FleetChaosLedger = fleet.ChaosLedger
)

// UniformChaos builds a policy faulting every endpoint kind at the same
// per-request rate, with default modes, ceiling and tuning.
func UniformChaos(seed uint64, rate float64) ChaosConfig { return chaos.Uniform(seed, rate) }

// Session event plane: qlog-style structured tracing off the hot path.
// Every session owns a bounded lock-free ring of typed events (drop-on-full
// with exact accounting, never blocking the serving or streaming path), the
// origin drains them incrementally over GET /events?sid=...&since=..., and
// a padded-atomic registry backs a Prometheus-text GET /metrics. Set
// DASHOriginConfig.Events (or `dashserver -events`) to enable both
// endpoints; set FleetConfig.Events (or `fleetsim -events`) to trace a
// whole fleet and have reconciliation cross-check every session's event
// tallies against its own ledgers and the origin's /stats — a third
// independently produced account of the run.
type (
	// DASHEventsConfig enables the origin's event plane: per-session trace
	// rings, the /events drain and the /metrics exposition.
	DASHEventsConfig = origin.EventsConfig
	// Event is one structured trace record: a Kind plus fixed typed fields
	// (chunk, rung, bytes, durations, epoch), JSON-lines on the wire.
	Event = qlog.Event
	// EventKind is the closed event taxonomy (see qlog.KindByName).
	EventKind = qlog.Kind
	// EventRing is the bounded lock-free MPMC ring sessions trace into.
	EventRing = qlog.Ring
	// EventMetrics is the padded-atomic aggregate registry behind /metrics.
	EventMetrics = qlog.Metrics
	// FleetEventsSpec attaches the event plane to a fleet run; the report
	// gains a FleetEventsLedger and per-session trace summaries.
	FleetEventsSpec = fleet.EventsSpec
	// FleetEventsLedger is the fleet's event-plane ledger: per-kind trace
	// sums plus the registry's emit/drop self-accounting.
	FleetEventsLedger = fleet.EventsLedger
)

// NewEventRing builds a bounded trace ring (capacity rounded up to a power
// of two; <= 0 selects the default). Set it on DASHClient.Events to trace a
// hand-rolled client the way the fleet harness traces its sessions.
func NewEventRing(capacity int) *EventRing { return qlog.NewRing(capacity) }
