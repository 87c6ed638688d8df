// Package origin is the multi-tenant DASH streaming origin (§6 of the
// paper, scaled from the single-video demo to a catalog service). One
// Origin process serves every catalog video at once and runs a small
// session control plane:
//
//   - POST /session                       — join: pick a video, optionally a
//     named trace and timescale; returns a session ID
//   - GET  /v/{video}/manifest.mpd        — SENSEI-extended manifest; weights
//     are computed lazily, at most once per video (WeightService
//     singleflight), and persisted so restarts are instant
//   - GET  /v/{video}/segment/{chunk}/{rung}?sid=... — synthetic segment
//     bytes shaped by the *session's own* trace cursor; the response carries
//     wire.WeightEpochHeader so clients detect profile staleness for free
//   - GET  /weights?sid=...              — the session's video's current
//     profile snapshot (epoch + weights); clients re-fetch it when a
//     segment response advertises a newer epoch
//   - POST /refresh                      — re-profile a chunk window of a
//     video and publish the result as the next epoch (live-ops hook)
//   - DELETE /session/{id}               — leave
//   - GET  /stats                        — active sessions, bytes served,
//     per-video hit counts and weight epochs
//
// The request and response bodies, header names and paths are internal/
// wire's. Each session owns a Shaper replaying its own trace from its own
// start time, so concurrent sessions observe independent bottlenecks — the
// substrate per-user QoE personalization builds on — instead of contending
// on one global cursor. Idle sessions are reaped by a janitor. Server
// wraps an Origin with a drained, context-based graceful shutdown.
//
// Sensitivity weights are a live, versioned data plane (internal/
// sensitivity): each video's profile is an immutable epoch-stamped
// snapshot in a WeightService holder, refreshed atomically by incremental
// re-profiling, with the current epoch advertised on every segment
// response so mid-stream clients converge on a new epoch within one
// segment download.
//
// Each route is one core function (core.go) that parses, acts and
// returns a typed reply; it never sleeps, panics or touches an
// http.ResponseWriter. Two adapters render replies (serve.go): ServeHTTP
// for sockets and RoundTrip, an http.RoundTripper the fleet's clients
// call on their own goroutines.
//
// The serving hot path is engineered for throughput: the session registry
// is lock-striped (see session.go) so concurrent streams never serialize
// on one registry mutex, per-segment accounting lands on per-stripe
// counters folded only at /stats time, and the steady-state segment
// route allocates nothing — response headers, segment sizes and the
// epoch stamp are all preformatted per catalog video at construction or on
// epoch change, and the per-request throttle is one batched sleep instead
// of one per written slice. TestSegmentSteadyStateZeroAlloc pins the
// zero-allocation contract.
package origin

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/ingest"
	"sensei/internal/qlog"
	"sensei/internal/sensitivity"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// DefaultSessionIdleTimeout reaps sessions that stop issuing requests.
const DefaultSessionIdleTimeout = 2 * time.Minute

// DefaultMaxSessions caps concurrently registered sessions.
const DefaultMaxSessions = 4096

// Config assembles an Origin.
type Config struct {
	// Catalog is the set of videos this origin serves, keyed by Video.Name
	// in requests.
	Catalog []*video.Video
	// Profile computes sensitivity weights for a video on first manifest
	// request; nil serves legacy manifests without weights.
	Profile ProfileFunc
	// WeightDir, when non-empty, persists computed weights on disk so they
	// survive a process restart.
	WeightDir string
	// Weights, when non-nil, is an externally owned weight service this
	// origin serves from instead of building its own (Profile and WeightDir
	// are then ignored). The multi-origin router injects one shared service
	// into every shard so a video profiles at most once per process and an
	// epoch bump is visible on all shards at once.
	Weights *WeightService
	// Traces are the named throughput traces sessions can choose from.
	// At least one is required.
	Traces map[string]*trace.Trace
	// DefaultTrace names the trace used when a session request does not
	// pick one; it must be a key of Traces.
	DefaultTrace string
	// TimeScale is the default wall-clock compression for sessions that do
	// not request one (default 1 = real time).
	TimeScale float64
	// SessionIdleTimeout reaps sessions with no requests for this long
	// (default DefaultSessionIdleTimeout).
	SessionIdleTimeout time.Duration
	// MaxSessions bounds the registry (default DefaultMaxSessions);
	// joins beyond it get 503.
	MaxSessions int
	// Ingest, when non-nil, enables the closed feedback loop: POST /rating
	// feeds a sharded per-video×chunk-window aggregator whose autopilot
	// converts accumulated rating evidence into autonomous RefreshWindow
	// publishes (see internal/ingest). Requires Profile — autonomous
	// refreshes re-profile chunk windows with it.
	Ingest *ingest.Config
	// Chaos, when non-nil, enables the seeded fault-injection plane on the
	// data and control routes (never /stats, /refresh or the event plane):
	// each adapter asks the injector for a request's fault before its
	// route acts, realizes it — a 503, a reset, a stall on Clock, a
	// truncated segment — and the injected-fault ledger appears under
	// /stats for two-sided reconciliation. Nil skips the question: the
	// healthy segment path pays one nil check for the plane's existence.
	Chaos *chaos.Policy
	// Clock is the timing plane every origin sleep and timestamp runs on —
	// shaped segment delivery, chaos stalls, session idle accounting, the
	// janitor's expiry decisions and ingest refresh accounting. Nil selects
	// the wall clock (vclock.NewReal), which is the historical behavior.
	// Under a virtual clock, requests must arrive from registered vclock
	// participants (the fleet harness's sessions).
	Clock vclock.Clock
	// Events, when non-nil, enables the qlog session event plane: every
	// session carries a server-side event ring drained via GET /events,
	// injected faults mirror onto a process ring, and GET /metrics serves
	// the aggregate registry as Prometheus text. Nil keeps every emitter
	// off the request path — the segment hot path pays one nil check.
	Events *EventsConfig
	// Shard is this origin's index behind a multi-origin router, used only
	// to label the origin's background goroutines for pprof cohorting
	// (0 for a standalone origin).
	Shard int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// epochStamp is a preformatted wire.WeightEpochHeader value, rebuilt only
// when the epoch actually changes so the per-segment stamp is two atomic
// loads, not a FormatUint.
type epochStamp struct {
	epoch  uint64
	header []string
}

// stampOf formats epoch's stamp.
func stampOf(epoch uint64) epochStamp {
	return epochStamp{epoch, []string{strconv.FormatUint(epoch, 10)}}
}

// zeroStamp is what a video advertises before it is profiled.
var zeroStamp = &epochStamp{header: zeroEpochHeader}

// cachedBody is an epoch-stamped preserialized response body (manifest or
// weights JSON). Bodies are immutable once built; a refresh publishes a
// new epoch and the next request rebuilds the cache entry.
type cachedBody struct {
	epochStamp
	body []byte
}

// catalogEntry is one catalog video plus everything the data plane wants
// preformatted: per-(chunk,rung) payload sizes and Content-Length header
// values (built at construction — the catalog is known up front, so the
// old first-hit sync.Map allocation race is gone), the per-video segment
// hit counter, the cached profile holder for lock-free epoch stamping, and
// per-epoch cached manifest/weights bodies.
type catalogEntry struct {
	v      *video.Video
	hits   atomic.Int64
	sizes  []int    // [chunk·rungs+rung] payload bytes
	clHdrs []string // [chunk·rungs+rung] Content-Length value, each a substring of one string

	holder   atomic.Pointer[sensitivity.Versioned] // nil until first resolve
	stamp    atomic.Pointer[epochStamp]
	manifest atomic.Pointer[cachedBody]
	weights  atomic.Pointer[cachedBody]
}

// Origin is the multi-tenant origin: catalog, versioned weight service,
// lock-striped session registry and HTTP handler.
type Origin struct {
	cfg      Config
	videos   map[string]*catalogEntry
	store    *WeightService
	feedback *ingest.Plane   // nil when the closed loop is disabled
	chaos    *chaos.Injector // nil when fault injection is disabled
	mux      *http.ServeMux  // ServeHTTP's fallback, and /stats and the event plane

	// Event plane (nil/zero when disabled): aggregate registry, per-session
	// ring capacity, the process-level ring for non-session events
	// (injected faults), and the recycled /metrics render buffer.
	events     *qlog.Metrics
	eventsCap  int
	procRing   *qlog.Ring
	metricsBuf atomic.Pointer[[]byte]

	shards [registryShards]sessionShard
	active atomic.Int64 // registered sessions (the MaxSessions reservation)

	sessionsCreated atomic.Int64
	sessionsClosed  atomic.Int64
	sessionsExpired atomic.Int64
	manifestsServed atomic.Int64
	weightsServed   atomic.Int64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New validates cfg and builds the origin, starting the idle janitor.
// Callers must Close it (Server.Shutdown does).
func New(cfg Config) (*Origin, error) {
	if len(cfg.Catalog) == 0 {
		return nil, fmt.Errorf("origin: empty catalog")
	}
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("origin: no traces configured")
	}
	if cfg.DefaultTrace == "" {
		return nil, fmt.Errorf("origin: no default trace configured")
	}
	if _, ok := cfg.Traces[cfg.DefaultTrace]; !ok {
		return nil, fmt.Errorf("origin: default trace %q not in trace set", cfg.DefaultTrace)
	}
	for name, tr := range cfg.Traces {
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("origin: trace %q: %w", name, err)
		}
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.SessionIdleTimeout <= 0 {
		cfg.SessionIdleTimeout = DefaultSessionIdleTimeout
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewReal()
	}
	videos := make(map[string]*catalogEntry, len(cfg.Catalog))
	for _, v := range cfg.Catalog {
		if v == nil || v.Name == "" {
			return nil, fmt.Errorf("origin: catalog contains an unnamed video")
		}
		if _, dup := videos[v.Name]; dup {
			return nil, fmt.Errorf("origin: duplicate catalog video %q", v.Name)
		}
		videos[v.Name] = newCatalogEntry(v)
	}
	if cfg.Ingest != nil && cfg.Profile == nil {
		return nil, fmt.Errorf("origin: feedback ingest enabled without a profile function")
	}
	store := cfg.Weights
	if store == nil {
		store = NewWeightService(cfg.WeightDir, cfg.Profile, cfg.Logf)
	}
	o := &Origin{
		cfg:    cfg,
		videos: videos,
		store:  store,
		done:   make(chan struct{}),
	}
	for i := range o.shards {
		o.shards[i].sessions = map[string]*session{}
	}
	if cfg.Ingest != nil {
		icfg := *cfg.Ingest
		if icfg.Clock == nil {
			icfg.Clock = cfg.Clock
		}
		plane, err := ingest.New(icfg, refresherAdapter{o}, cfg.Logf)
		if err != nil {
			return nil, err
		}
		o.feedback = plane
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", o.handle(routeJoin))
	mux.HandleFunc("DELETE /session/{id}", o.handle(routeLeave))
	mux.HandleFunc("GET /v/{video}/manifest.mpd", o.handle(routeManifest))
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", o.handleSegment)
	mux.HandleFunc("GET /weights", o.handle(routeWeights))
	mux.HandleFunc("POST /refresh", o.handle(routeRefresh))
	if o.feedback != nil {
		mux.HandleFunc("POST /rating", o.handle(routeRating))
	}
	mux.HandleFunc("GET /stats", o.handleStats)
	if cfg.Events != nil {
		o.events = cfg.Events.Metrics
		if o.events == nil {
			o.events = &qlog.Metrics{}
		}
		o.eventsCap = cfg.Events.ringCapacity()
		o.procRing = qlog.NewRing(o.eventsCap)
		// Like /stats and /refresh, the event endpoints are never faulted:
		// observability stays reachable no matter the weather.
		mux.HandleFunc("GET /events", o.handleEvents)
		mux.HandleFunc("GET /metrics", o.handleMetrics)
	}
	o.mux = mux
	if cfg.Chaos != nil {
		inj, err := chaos.NewInjector(*cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("origin: %w", err)
		}
		if o.events != nil {
			inj.SetObserver(o.observeChaos)
		}
		o.chaos = inj
	}
	interval := cfg.SessionIdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	o.wg.Add(1)
	// The janitor's pprof label segments profiles by subsystem and — behind
	// a multi-origin router — by owning shard.
	go pprof.Do(context.Background(),
		pprof.Labels("subsystem", "origin-janitor", "shard", strconv.Itoa(cfg.Shard)),
		func(context.Context) { o.janitor(interval) })
	return o, nil
}

// newCatalogEntry preformats everything the segment hot path needs for one
// video: payload sizes and Content-Length header values per (chunk, rung),
// as three slabs — the sizes, the decimal digits of all of them in one
// string, and one substring of it per value — whatever the catalog's size.
func newCatalogEntry(v *video.Video) *catalogEntry {
	n := v.NumChunks() * len(v.Ladder)
	ce := &catalogEntry{v: v, sizes: make([]int, n), clHdrs: make([]string, n)}
	var digits strings.Builder
	digits.Grow(n * 7) // seven digits hold any segment under 10 MB
	var scratch [20]byte
	for i := range ce.sizes {
		ce.sizes[i] = int(v.ChunkSizeBits(i/len(v.Ladder), i%len(v.Ladder)) / 8)
		digits.Write(strconv.AppendInt(scratch[:0], int64(ce.sizes[i]), 10))
	}
	all, off := digits.String(), 0
	for i, size := range ce.sizes {
		w := len(strconv.AppendInt(scratch[:0], int64(size), 10))
		ce.clHdrs[i] = all[off : off+w]
		off += w
	}
	return ce
}

// Close stops the janitor and the feedback autopilot. It does not interrupt
// in-flight HTTP requests; Server.Shutdown drains those first.
func (o *Origin) Close() {
	o.closeOnce.Do(func() { close(o.done) })
	o.wg.Wait()
	if o.feedback != nil {
		o.feedback.Close()
	}
}

// refresherAdapter exposes the origin's weight plane to the ingest
// autopilot without a package cycle.
type refresherAdapter struct{ o *Origin }

func (r refresherAdapter) EpochOf(videoName string) uint64 { return r.o.store.EpochOf(videoName) }

func (r refresherAdapter) RefreshWindow(videoName string, lo, hi int) (uint64, error) {
	p, err := r.o.RefreshWeights(videoName, lo, hi)
	if err != nil {
		return 0, err
	}
	return p.Epoch, nil
}

// Ingest exposes the feedback plane (nil when the closed loop is disabled).
func (o *Origin) Ingest() *ingest.Plane { return o.feedback }

// DrainIngest waits for every autonomously triggered refresh to complete,
// so a /stats read afterwards sees settled refresh counters. Harnesses call
// it after their clients drain and before reconciling ledgers. A no-op when
// the closed loop is disabled.
func (o *Origin) DrainIngest(ctx context.Context) error {
	if o.feedback == nil {
		return nil
	}
	return o.feedback.Quiesce(ctx)
}

// Weights exposes the versioned profile service (tests assert its call
// counts; operators publish refreshes through it).
func (o *Origin) Weights() *WeightService { return o.store }

// SessionsCreated reports the join counter — a lock-free read for callers
// (like the fleet's refresh watcher) that poll it at high frequency and
// must not contend with the registry the way a full Stats() does.
func (o *Origin) SessionsCreated() int64 { return o.sessionsCreated.Load() }

// PublishWeights installs weights as the named video's next profile epoch
// — the in-process control-plane hook the fleet harness and embedding
// servers use to push a refresh to every active session.
func (o *Origin) PublishWeights(videoName string, weights []float64) (*sensitivity.Profile, error) {
	ce, ok := o.videos[videoName]
	if !ok {
		return nil, fmt.Errorf("origin: video %q not in catalog", videoName)
	}
	p, err := o.store.Publish(ce.v, weights)
	if err != nil {
		return nil, err
	}
	o.logf("origin: published weights for %q at epoch %d", videoName, p.Epoch)
	return p, nil
}

// RefreshWeights re-profiles chunks [lo, hi) of the named video with the
// configured profile function and publishes the spliced result as the next
// epoch.
func (o *Origin) RefreshWeights(videoName string, lo, hi int) (*sensitivity.Profile, error) {
	ce, ok := o.videos[videoName]
	if !ok {
		return nil, fmt.Errorf("origin: video %q not in catalog", videoName)
	}
	p, err := o.store.RefreshWindow(ce.v, lo, hi)
	if err != nil {
		return nil, err
	}
	o.logf("origin: refreshed %q chunks [%d,%d) to epoch %d", videoName, lo, hi, p.Epoch)
	return p, nil
}

// ChaosJournal returns the injected-fault replay journal (nil when fault
// injection is disabled). Harnesses replay it against the policy seed to
// prove every fault a run saw is reproducible.
func (o *Origin) ChaosJournal() []chaos.Event {
	if o.chaos == nil {
		return nil
	}
	return o.chaos.Journal()
}

func (o *Origin) logf(format string, args ...any) {
	if o.cfg.Logf != nil {
		o.cfg.Logf(format, args...)
	}
}

// --- live profile access ---

// profileOf returns ce's current profile snapshot, resolving (and caching)
// the video's live holder on first use. After the first call the read is
// lock-free: one atomic holder load plus one atomic snapshot load.
func (o *Origin) profileOf(ce *catalogEntry) (*sensitivity.Profile, error) {
	h := ce.holder.Load()
	if h == nil {
		var err error
		if h, err = o.store.HolderOf(ce.v); err != nil {
			return nil, err
		}
		ce.holder.Store(h)
	}
	p, _ := h.Snapshot()
	return p, nil
}

// currentStamp returns ce's current weight epoch with its preformatted
// wire.WeightEpochHeader value. It never triggers profiling: a cold video
// advertises 0. Steady state is three atomic loads and zero allocations;
// the stamp is rebuilt only when a refresh bumps the epoch.
func (o *Origin) currentStamp(ce *catalogEntry) *epochStamp {
	h := ce.holder.Load()
	if h == nil {
		if h = o.store.Holder(ce.v.Name); h == nil {
			return zeroStamp
		}
		ce.holder.Store(h)
	}
	_, epoch := h.Snapshot()
	st := ce.stamp.Load()
	if st == nil || st.epoch != epoch {
		s := stampOf(epoch)
		st = &s
		ce.stamp.Store(st)
	}
	return st
}

// --- stats ---

// SessionStats is one active session's /stats row.
type SessionStats struct {
	ID        string  `json:"id"`
	Video     string  `json:"video"`
	Trace     string  `json:"trace"`
	TimeScale float64 `json:"timescale"`
	Bytes     int64   `json:"bytes"`
	Segments  int64   `json:"segments"`
	IdleSec   float64 `json:"idle_sec"`
	UptimeSec float64 `json:"uptime_sec"`
}

// Stats is the /stats payload.
type Stats struct {
	ActiveSessions    int               `json:"active_sessions"`
	SessionsCreated   int64             `json:"sessions_created"`
	SessionsClosed    int64             `json:"sessions_closed"`
	SessionsExpired   int64             `json:"sessions_expired"`
	BytesServed       int64             `json:"bytes_served"`
	SegmentsServed    int64             `json:"segments_served"`
	ManifestsServed   int64             `json:"manifests_served"`
	WeightsServed     int64             `json:"weights_served"`
	ProfilesComputed  int64             `json:"profiles_computed"`
	ProfilesFromDisk  int64             `json:"profiles_from_disk"`
	ProfilesRefreshed int64             `json:"profiles_refreshed"`
	VideoHits         map[string]int64  `json:"video_hits"`
	WeightEpochs      map[string]uint64 `json:"weight_epochs,omitempty"`
	// Ingest is the closed feedback loop's ledger (nil when disabled):
	// rating accept/quarantine counts and the autonomous refresh counters.
	Ingest *ingest.Stats `json:"ingest,omitempty"`
	// Chaos is the injected-fault ledger (nil when fault injection is
	// disabled), reconciled exactly against client Resilience ledgers.
	Chaos    *chaos.Stats   `json:"chaos,omitempty"`
	Sessions []SessionStats `json:"sessions,omitempty"`
}

// Stats snapshots the origin's counters, folding the per-stripe registry
// and byte/segment ledgers the hot path writes.
func (o *Origin) Stats() Stats {
	now := o.cfg.Clock.Now()
	sessions := make([]SessionStats, 0, o.active.Load())
	var bytesServed, segmentsServed int64
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			sessions = append(sessions, SessionStats{
				ID:        s.id,
				Video:     s.videoName,
				Trace:     s.traceName,
				TimeScale: s.timeScale,
				Bytes:     s.bytes.Load(),
				Segments:  s.segments.Load(),
				IdleSec:   s.idleSince(now).Seconds(),
				UptimeSec: (now - s.created).Seconds(),
			})
		}
		sh.mu.RUnlock()
		bytesServed += sh.bytes.Load()
		segmentsServed += sh.segments.Load()
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })

	hits := make(map[string]int64, len(o.videos))
	epochs := map[string]uint64{}
	for name, ce := range o.videos {
		if n := ce.hits.Load(); n > 0 {
			hits[name] = n
		}
		if e := o.store.EpochOf(name); e > 0 {
			epochs[name] = e
		}
	}
	var ing *ingest.Stats
	if o.feedback != nil {
		s := o.feedback.Stats()
		ing = &s
	}
	var chs *chaos.Stats
	if o.chaos != nil {
		s := o.chaos.Stats()
		chs = &s
	}
	return Stats{
		Ingest:            ing,
		Chaos:             chs,
		ActiveSessions:    len(sessions),
		SessionsCreated:   o.sessionsCreated.Load(),
		SessionsClosed:    o.sessionsClosed.Load(),
		SessionsExpired:   o.sessionsExpired.Load(),
		BytesServed:       bytesServed,
		SegmentsServed:    segmentsServed,
		ManifestsServed:   o.manifestsServed.Load(),
		WeightsServed:     o.weightsServed.Load(),
		ProfilesComputed:  o.store.ProfileCalls(),
		ProfilesFromDisk:  o.store.DiskLoads(),
		ProfilesRefreshed: o.store.Refreshes(),
		VideoHits:         hits,
		WeightEpochs:      epochs,
		Sessions:          sessions,
	}
}

func (o *Origin) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(o.Stats())
}
