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
// the manifest's SenseiWeights extension. See NewDASHOrigin,
// NewDASHServer, NewDASHRouter and DASHClient, or run cmd/dashserver and
// cmd/dashclient.
//
// Sensitivity is a live, versioned data plane: the origin re-profiles
// chunk windows and publishes new epochs atomically, and active sessions —
// simulator and DASH client alike — adopt a refresh before their next
// decision. The loop closes end to end: clients rate each rendered chunk,
// the origin's ingest plane
// (IngestConfig) turns the ratings into autonomous refreshes. RunFleet
// drives whole fleets of clients against an origin, with raters
// (FleetRaterSpec) and fault injection (FleetChaosSpec), always on virtual
// time.
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
	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/router"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// Video is a source video with its synthetic content model (chunk sizes,
// attention/motion/complexity signals). See the video package.
type Video = video.Video

// VideoCatalog returns the paper's 16-video test set (Table 1).
func VideoCatalog() []*Video { return video.TestSet() }

// VideoByName generates one catalog video by its Table 1 name.
func VideoByName(name string) (*Video, error) { return video.ByName(name) }

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

// PopulationConfig controls rater synthesis.
type PopulationConfig = mos.PopulationConfig

// NewPopulation synthesizes a pool of simulated human raters.
func NewPopulation(cfg PopulationConfig) (*mos.Population, error) { return mos.NewPopulation(cfg) }

// TrueQoE returns the latent ground-truth QoE of a rendering — the
// asymptotic MOS real users would produce. Production systems cannot
// observe it directly; it exists for evaluation.
func TrueQoE(r *qoe.Rendering) float64 { return mos.TrueQoE(r) }

// Profile is the result of profiling one video: weights plus the bill.
type Profile = crowd.Profile

// NewProfiler returns a §4 crowdsourced profiler with the paper's default
// parameters.
func NewProfiler(pop *mos.Population) *crowd.Profiler { return crowd.NewProfiler(pop) }

// Algorithm is an ABR policy driving chunk-by-chunk decisions.
type Algorithm = player.Algorithm

// NewBBA returns the buffer-based baseline ABR.
func NewBBA() Algorithm { return abr.NewBBA() }

// NewFugu returns the stochastic-MPC baseline ABR (Eq. 3 objective).
func NewFugu() Algorithm { return abr.NewFugu() }

// NewSenseiFugu returns SENSEI applied to the MPC algorithm: the Eq. 4
// weighted objective plus the proactive rebuffering action.
func NewSenseiFugu() Algorithm { return abr.NewSenseiFugu() }

// Stream plays v over tr with the given algorithm. weights may be nil for
// sensitivity-blind algorithms.
func Stream(v *Video, tr *Trace, alg Algorithm, weights []float64) (*player.Result, error) {
	return player.Play(v, tr, alg, weights, player.Config{})
}

// SessionQoE scores a rendering with the content-blind kernel (the
// objective baseline ABRs optimize).
func SessionQoE(r *qoe.Rendering) float64 { return abr.SessionQoE(r) }

// WeightedSessionQoE scores a rendering with sensitivity weights (SENSEI's
// objective).
func WeightedSessionQoE(r *qoe.Rendering, weights []float64) float64 {
	return abr.WeightedSessionQoE(r, weights)
}

// DASH integration (§6), scaled to a multi-tenant origin: one process
// serves the whole catalog, each client joins a session whose egress is
// shaped by its own trace cursor, sensitivity weights are profiled lazily
// at most once per video, and the manifest carries the SenseiWeights
// extension over real TCP.
type (
	// DASHOriginConfig assembles an origin. Set Events for the /events and
	// /metrics plane, Ingest for the closed feedback loop and Chaos for
	// seeded fault injection.
	DASHOriginConfig = origin.Config
	// DASHProfileFunc computes weights for a video on first manifest
	// request (e.g. wrapping a profiler's Profile).
	DASHProfileFunc = origin.ProfileFunc
	// DASHEventsConfig enables the origin's event plane: per-session trace
	// rings, the /events drain and the /metrics exposition.
	DASHEventsConfig = origin.EventsConfig
	// DASHClient joins an origin session and streams, driving an
	// Algorithm.
	DASHClient = dash.Client
	// DASHSession is the outcome of one streamed playback.
	DASHSession = dash.Session
	// DASHRouterConfig assembles a consistent-hash router fronting N
	// origin shards: shard count plus the per-shard origin template.
	DASHRouterConfig = router.Config
)

// NewDASHOrigin builds a multi-tenant origin from cfg. Close it when done
// (NewDASHServer ties it to the server's shutdown).
func NewDASHOrigin(cfg DASHOriginConfig) (*origin.Origin, error) { return origin.New(cfg) }

// NewDASHServer binds o to a listener; Start it, then Shutdown(ctx) to
// drain in-flight segment streams.
func NewDASHServer(o *origin.Origin) *origin.Server { return origin.NewServer(o) }

// NewDASHRouter builds a router fronting cfg.Shards origin shards behind
// one listener without changing the client protocol: sessions are sticky,
// the weight plane is shared, and GET /stats merges the shards' ledgers.
// Close it when done (NewDASHRouterServer ties it to the server's
// shutdown).
func NewDASHRouter(cfg DASHRouterConfig) (*router.Router, error) { return router.New(cfg) }

// NewDASHRouterServer binds rt to a listener; Start it, then Shutdown(ctx)
// to drain in-flight segment streams across every shard.
func NewDASHRouterServer(rt *router.Router) *router.Server { return router.NewServer(rt) }

// IngestConfig tunes the origin's feedback plane: chunk-window
// granularity, the confidence gate and the recency half-life. Set it on
// DASHOriginConfig.Ingest to enable POST /rating.
type IngestConfig = ingest.Config

// ChaosConfig is a fault-injection policy: a seed, per-endpoint fault
// specs, the consecutive-fault ceiling and the stall/truncation tuning.
// Set it on DASHOriginConfig.Chaos to enable fault injection.
type ChaosConfig = chaos.Policy

// UniformChaos builds a policy faulting every endpoint kind at the same
// per-request rate, with default modes, ceiling and tuning.
func UniformChaos(seed uint64, rate float64) ChaosConfig { return chaos.Uniform(seed, rate) }

// Fleet harness: drive N concurrent DASH clients — a deterministic mix of
// videos, traces, timescales and ABR algorithms — against one origin, and
// get an aggregate report whose client-side ledgers are reconciled exactly
// against the origin's /stats. See cmd/fleetsim.
type (
	// FleetConfig describes a fleet run (size, mix, workers).
	FleetConfig = fleet.Config
	// FleetABR names a fleet-selectable adaptation algorithm.
	FleetABR = fleet.ABR
	// FleetRaterSpec attaches rater cohorts to a fleet run, closing the
	// loop at scale: every session posts per-chunk ratings and the report
	// gains an ingest ledger reconciled exactly against /stats.
	FleetRaterSpec = fleet.RaterSpec
	// FleetChaosSpec attaches the fault plane to a fleet run; the report
	// gains a chaos ledger reconciled per endpoint kind.
	FleetChaosSpec = fleet.ChaosSpec
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
func RunFleet(ctx context.Context, cfg FleetConfig) (*fleet.Report, error) {
	return fleet.Run(ctx, cfg)
}
