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
// The serving hot path is engineered for throughput: the session registry
// is lock-striped (see session.go) so concurrent streams never serialize
// on one registry mutex, per-segment accounting lands on per-stripe
// counters folded only at /stats time, and the steady-state segment
// handler allocates nothing — response headers, segment sizes and the
// epoch stamp are all preformatted per catalog video at construction or on
// epoch change, and the per-request throttle is one batched sleep instead
// of one per written slice. TestSegmentSteadyStateZeroAlloc pins the
// zero-allocation contract.
package origin

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	"sensei/internal/wire"
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
	// Chaos, when non-nil, mounts the seeded fault-injection plane as
	// middleware in front of the data and control planes (never /stats or
	// /refresh): requests are faulted per the policy and the injected-fault
	// ledger appears under /stats for two-sided reconciliation. Nil keeps
	// the middleware off the request path entirely — the healthy segment
	// path pays nothing for the plane's existence.
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

// Preformatted single-value response headers, assigned directly into the
// header map so the steady-state data plane never formats or allocates
// header values. net/http only ever reads them, and the keys are already
// in canonical MIME form.
var (
	hdrVideoMP4     = []string{"video/mp4"}
	hdrDashXML      = []string{"application/dash+xml"}
	hdrJSON         = []string{"application/json"}
	zeroEpochHeader = []string{"0"}
)

// epochStamp is a preformatted wire.WeightEpochHeader value, rebuilt only
// when the epoch actually changes so the per-segment stamp is two atomic
// loads, not a FormatUint.
type epochStamp struct {
	epoch  uint64
	header []string
}

// zeroStamp is what a video advertises before it is profiled.
var zeroStamp = &epochStamp{header: zeroEpochHeader}

// cachedBody is an epoch-stamped preserialized response body (manifest or
// weights JSON). Bodies are immutable once built; a refresh publishes a
// new epoch and the next request rebuilds the cache entry.
type cachedBody struct {
	epoch    uint64
	epochHdr []string
	body     []byte
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
	mux      *http.ServeMux
	handler  http.Handler // route, possibly behind the chaos middleware

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
	mux.HandleFunc("POST /session", o.handleJoin)
	mux.HandleFunc("DELETE /session/{id}", o.handleLeave)
	mux.HandleFunc("GET /v/{video}/manifest.mpd", o.handleManifest)
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", o.handleSegment)
	mux.HandleFunc("GET /weights", o.handleWeights)
	mux.HandleFunc("POST /refresh", o.handleRefresh)
	if o.feedback != nil {
		mux.HandleFunc("POST /rating", o.handleRating)
	}
	mux.HandleFunc("GET /stats", o.handleStats)
	if cfg.Events != nil {
		o.events = cfg.Events.Metrics
		if o.events == nil {
			o.events = &qlog.Metrics{}
		}
		o.eventsCap = cfg.Events.ringCapacity()
		o.procRing = qlog.NewRing(o.eventsCap)
		// Like /stats and /refresh, the event endpoints are never behind
		// the chaos middleware (classifyChaos does not match them):
		// observability stays reachable no matter the weather.
		mux.HandleFunc("GET /events", o.handleEvents)
		mux.HandleFunc("GET /metrics", o.handleMetrics)
	}
	o.mux = mux
	o.handler = http.HandlerFunc(o.route)
	if cfg.Chaos != nil {
		inj, err := chaos.NewInjector(*cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("origin: %w", err)
		}
		inj.SetClock(cfg.Clock)
		if o.events != nil {
			inj.SetObserver(o.observeChaos)
		}
		o.chaos = inj
		o.handler = inj.Middleware(o.handler, classifyChaos)
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

// ServeHTTP implements http.Handler.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) { o.handler.ServeHTTP(w, r) }

// route serves a segment GET that segmentRoute accepts directly and hands
// every other request to the mux.
func (o *Origin) route(w http.ResponseWriter, r *http.Request) {
	if ce, chunk, rung, ok := o.segmentRoute(r); ok {
		o.serveSegment(w, r, ce, chunk, rung)
		return
	}
	o.mux.ServeHTTP(w, r)
}

// segmentRoute takes a segment GET past the mux, whose wildcard captures
// allocate: a plain GET of an unescaped path that wire.ParseSegmentPath
// accepts and that names a catalog video. Anything else — HEAD, an escaped
// path, a path the parser refuses — is left to the mux, which answers it
// as it always has.
func (o *Origin) segmentRoute(r *http.Request) (ce *catalogEntry, chunk, rung int, ok bool) {
	if r.Method != http.MethodGet || r.URL.RawPath != "" {
		return nil, 0, 0, false
	}
	name, chunk, rung, ok := wire.ParseSegmentPath(r.URL.Path)
	if !ok {
		return nil, 0, 0, false
	}
	ce, ok = o.videos[name]
	return ce, chunk, rung, ok
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

// classifyChaos maps a request to its chaos endpoint kind and stream key.
// /stats and /refresh are deliberately unclassified: reconciliation and
// operator controls stay reachable no matter how unhealthy the data plane
// is. The stream key is the client-chosen chaos.KeyHeader, falling back to
// the session ID so ad-hoc clients still get per-session determinism.
func classifyChaos(r *http.Request) (chaos.Kind, string, bool) {
	var kind chaos.Kind
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/session",
		r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/session/"):
		kind = chaos.KindSession
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v/") && strings.HasSuffix(r.URL.Path, "/manifest.mpd"):
		kind = chaos.KindManifest
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v/") && strings.Contains(r.URL.Path, "/segment/"):
		kind = chaos.KindSegment
	case r.Method == http.MethodGet && r.URL.Path == "/weights":
		kind = chaos.KindWeights
	case r.Method == http.MethodPost && r.URL.Path == "/rating":
		kind = chaos.KindRating
	default:
		return "", "", false
	}
	key := r.Header.Get(chaos.KeyHeader)
	if key == "" {
		key = wire.QueryParam(r.URL.RawQuery, "sid")
	}
	return kind, key, true
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
		st = &epochStamp{epoch: epoch, header: []string{strconv.FormatUint(epoch, 10)}}
		ce.stamp.Store(st)
	}
	return st
}

// maxBodyBytes caps a control-plane request body.
const maxBodyBytes = 4096

// bodyBuf holds one control-plane request body, read whole and parsed in
// place, and then the reply, encoded over it. The handlers share a pool of
// them.
type bodyBuf [maxBodyBytes + 1]byte

var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// readBody reads r's body into buf. A body over maxBodyBytes is refused
// with http.MaxBytesReader's error, which also closes the connection after
// the reply.
func readBody(w http.ResponseWriter, r *http.Request, buf *bodyBuf) ([]byte, error) {
	n, err := io.ReadFull(http.MaxBytesReader(w, r.Body, maxBodyBytes), buf[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return buf[:n], err
}

// writeReply sends an encoded JSON reply followed by a newline, the bytes
// json.Encoder used to write.
func writeReply(w http.ResponseWriter, reply []byte) {
	w.Header()["Content-Type"] = hdrJSON
	_, _ = w.Write(append(reply, '\n'))
}

// --- control plane ---

// JoinRequest and JoinResponse name wire's POST /session bodies for
// bench/origin_wire.go, which predates package wire.
type (
	JoinRequest  = wire.JoinRequest
	JoinResponse = wire.JoinResponse
)

func (o *Origin) handleJoin(w http.ResponseWriter, r *http.Request) {
	buf := bodyBufs.Get().(*bodyBuf)
	defer bodyBufs.Put(buf)
	var req wire.JoinRequest
	body, err := readBody(w, r, buf)
	if err == nil {
		err = req.Parse(body)
	}
	if err != nil {
		http.Error(w, "origin: bad join body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ce, ok := o.videos[req.Video]
	if !ok {
		http.Error(w, fmt.Sprintf("origin: video %q not in catalog", req.Video), http.StatusNotFound)
		return
	}
	traceName := req.Trace
	if traceName == "" {
		traceName = o.cfg.DefaultTrace
	}
	tr, ok := o.cfg.Traces[traceName]
	if !ok {
		http.Error(w, fmt.Sprintf("origin: trace %q not offered", traceName), http.StatusBadRequest)
		return
	}
	scale := req.TimeScale
	if scale == 0 {
		scale = o.cfg.TimeScale
	}
	if scale <= 0 {
		http.Error(w, fmt.Sprintf("origin: invalid timescale %v", req.TimeScale), http.StatusBadRequest)
		return
	}
	shaper, err := NewShaper(tr, scale, o.cfg.Clock)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	id := r.Header.Get(wire.SessionIDHeader)
	if id == "" {
		id = NewSessionID()
	}
	s := &session{
		id:        id,
		videoName: ce.v.Name,
		traceName: traceName,
		timeScale: scale,
		shaper:    shaper,
		created:   o.cfg.Clock.Now(),
	}
	if o.events != nil {
		s.ring = qlog.NewRing(o.eventsCap)
	}
	s.touch(s.created)
	if !o.addSession(s) {
		http.Error(w, "origin: session registry full", http.StatusServiceUnavailable)
		return
	}
	if o.events != nil {
		o.events.SessionsJoined.Inc()
		qlog.Emit(s.ring, o.events, qlog.Event{
			T: s.created, Kind: qlog.KindOriginJoin, Detail: ce.v.Name,
		})
	}
	o.logf("origin: session %s joined: video=%q trace=%q timescale=%g", s.id, ce.v.Name, traceName, scale)
	writeReply(w, (&wire.JoinResponse{
		SessionID: s.id,
		Video:     ce.v.Name,
		Trace:     traceName,
		TimeScale: scale,
	}).AppendJSON(buf[:0]))
}

func (o *Origin) handleLeave(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Resolve the ring before removal: the leave mirror event lands on the
	// session's ring as its final record (drainable in-process; the wire
	// drain ends with the session, so drain before DELETE to observe it).
	var ring *qlog.Ring
	var finalBytes, finalSegs int64
	if o.events != nil {
		if s, ok := o.lookupSession(id); ok {
			ring, finalBytes, finalSegs = s.ring, s.bytes.Load(), s.segments.Load()
		}
	}
	switch o.removeSession(id) {
	case removeMissing:
		http.Error(w, fmt.Sprintf("origin: no session %q", id), http.StatusNotFound)
	case removeBusy:
		// Mirror the janitor: an in-flight session is never reaped. 409
		// tells the client to drain (or abort) its stream and retry.
		http.Error(w, fmt.Sprintf("origin: session %q has a stream in flight; drain it and retry", id), http.StatusConflict)
	case removeDone:
		if ring != nil {
			qlog.Emit(ring, o.events, qlog.Event{
				T: o.cfg.Clock.Now(), Kind: qlog.KindOriginLeave,
				Bytes: finalBytes, Extra: finalSegs,
			})
		}
		o.logf("origin: session %s left", id)
		w.WriteHeader(http.StatusNoContent)
	}
}

// --- data plane ---

func (o *Origin) handleManifest(w http.ResponseWriter, r *http.Request) {
	ce, ok := o.videos[r.PathValue("video")]
	if !ok {
		http.Error(w, fmt.Sprintf("origin: video %q not in catalog", r.PathValue("video")), http.StatusNotFound)
		return
	}
	if sid := wire.QueryParam(r.URL.RawQuery, "sid"); sid != "" {
		o.lookupSession(sid) // refresh the idle clock; manifests work without a session too
	}
	p, err := o.profileOf(ce)
	if err != nil {
		o.logf("origin: profiling %q: %v", ce.v.Name, err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	mb := ce.manifest.Load()
	if mb == nil || mb.epoch != p.Epoch {
		mpd, err := wire.BuildMPDProfile(ce.v, p.Weights, p.Epoch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		mb = &cachedBody{
			epoch:    p.Epoch,
			epochHdr: []string{strconv.FormatUint(p.Epoch, 10)},
			body:     mpd.AppendMPD(nil),
		}
		ce.manifest.Store(mb)
	}
	o.manifestsServed.Add(1)
	h := w.Header()
	h["Content-Type"] = hdrDashXML
	h[wire.WeightEpochHeader] = mb.epochHdr
	_, _ = w.Write(mb.body)
}

// handleWeights serves the current profile snapshot for the session named
// by ?sid=. At join time the manifest already carries the same data; this
// endpoint exists for the mid-stream refresh: a client that sees a newer
// epoch on a segment response fetches the new vector here before its next
// decision. The response body is serialized once per epoch and cached.
func (o *Origin) handleWeights(w http.ResponseWriter, r *http.Request) {
	sid := wire.QueryParam(r.URL.RawQuery, "sid")
	if sid == "" {
		http.Error(w, "origin: weights request without sid (join via POST /session)", http.StatusBadRequest)
		return
	}
	sess, ok := o.lookupSession(sid)
	if !ok {
		http.Error(w, fmt.Sprintf("origin: no session %q (expired?)", sid), http.StatusNotFound)
		return
	}
	ce, ok := o.videos[sess.videoName]
	if !ok {
		http.Error(w, fmt.Sprintf("origin: session video %q gone from catalog", sess.videoName), http.StatusInternalServerError)
		return
	}
	p, err := o.profileOf(ce)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	wb := ce.weights.Load()
	if wb == nil || wb.epoch != p.Epoch {
		// Room for any float as json writes it, and its comma, per weight.
		buf := make([]byte, 0, 64+len(p.VideoName)+26*len(p.Weights))
		body := (&wire.WeightsResponse{Video: p.VideoName, Epoch: p.Epoch, Weights: p.Weights}).AppendJSON(buf)
		wb = &cachedBody{
			epoch:    p.Epoch,
			epochHdr: []string{strconv.FormatUint(p.Epoch, 10)},
			body:     append(body, '\n'),
		}
		ce.weights.Store(wb)
	}
	o.weightsServed.Add(1)
	h := w.Header()
	h["Content-Type"] = hdrJSON
	h[wire.WeightEpochHeader] = wb.epochHdr
	_, _ = w.Write(wb.body)
}

func (o *Origin) handleRefresh(w http.ResponseWriter, r *http.Request) {
	buf := bodyBufs.Get().(*bodyBuf)
	defer bodyBufs.Put(buf)
	var req wire.RefreshRequest
	body, err := readBody(w, r, buf)
	if err == nil {
		err = req.Parse(body)
	}
	if err != nil {
		http.Error(w, "origin: bad refresh body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, ok := o.videos[req.Video]; !ok {
		http.Error(w, fmt.Sprintf("origin: video %q not in catalog", req.Video), http.StatusNotFound)
		return
	}
	p, err := o.RefreshWeights(req.Video, req.From, req.To)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set(wire.WeightEpochHeader, strconv.FormatUint(p.Epoch, 10))
	writeReply(w, (&wire.RefreshResponse{Video: p.VideoName, Epoch: p.Epoch}).AppendJSON(buf[:0]))
}

// handleRating feeds one client rating into the ingest plane (registered
// only when the closed loop is enabled). The rating is attributed through
// the session — clients never name videos directly on this path — and a
// rating is activity for the idle janitor, like any other request.
func (o *Origin) handleRating(w http.ResponseWriter, r *http.Request) {
	buf := bodyBufs.Get().(*bodyBuf)
	defer bodyBufs.Put(buf)
	var req wire.RatingRequest
	body, err := readBody(w, r, buf)
	if err == nil {
		err = req.Parse(body)
	}
	if err != nil {
		http.Error(w, "origin: bad rating body: "+err.Error(), http.StatusBadRequest)
		return
	}
	sess, ok := o.lookupSession(req.SessionID)
	if !ok {
		http.Error(w, fmt.Sprintf("origin: no session %q (expired?)", req.SessionID), http.StatusNotFound)
		return
	}
	ce, ok := o.videos[sess.videoName]
	if !ok {
		http.Error(w, fmt.Sprintf("origin: session video %q gone from catalog", sess.videoName), http.StatusInternalServerError)
		return
	}
	outcome, err := o.feedback.Ingest(ce.v, req.Chunk, req.Epoch, req.Rating)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	status := wire.StatusAccepted
	if outcome == ingest.Quarantined {
		status = wire.StatusQuarantined
	}
	if o.events != nil {
		kind := qlog.KindOriginRatingAccepted
		if outcome == ingest.Quarantined {
			kind = qlog.KindOriginRatingQuarantined
			o.events.RatingsQuarantined.Inc()
		} else {
			o.events.RatingsAccepted.Inc()
		}
		qlog.Emit(sess.ring, o.events, qlog.Event{
			T: o.cfg.Clock.Now(), Kind: kind,
			Chunk: int32(req.Chunk), Epoch: req.Epoch, Extra: int64(req.Rating),
		})
	}
	cur := o.currentStamp(ce)
	w.Header()[wire.WeightEpochHeader] = cur.header
	writeReply(w, (&wire.RatingResponse{
		Video:  ce.v.Name,
		Chunk:  req.Chunk,
		Status: status,
		Epoch:  cur.epoch,
	}).AppendJSON(buf[:0]))
}

// segmentPattern is the shared read-only payload source: handlers slice it
// directly instead of allocating and re-filling a buffer per request. The
// quantum is purely a write granularity — shaping is one batched
// Throttle+Sleep per segment, not per slice — so it only bounds how much
// the kernel is handed per Write.
var segmentPattern = func() []byte {
	b := make([]byte, 256*1024)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// handleSegment is the mux's segment route, for the requests segmentRoute
// leaves to it: the captures are parsed as they always were, and a number
// that does not parse is refused as out of range, after the session
// checks, like one that does.
func (o *Origin) handleSegment(w http.ResponseWriter, r *http.Request) {
	ce, ok := o.videos[r.PathValue("video")]
	if !ok {
		http.Error(w, fmt.Sprintf("origin: video %q not in catalog", r.PathValue("video")), http.StatusNotFound)
		return
	}
	chunk, err1 := strconv.Atoi(r.PathValue("chunk"))
	rung, err2 := strconv.Atoi(r.PathValue("rung"))
	if err1 != nil || err2 != nil {
		chunk = -1
	}
	o.serveSegment(w, r, ce, chunk, rung)
}

// serveSegment is the zero-allocation steady-state hot path (pinned by
// TestSegmentSteadyStateZeroAlloc): a striped-registry lookup, three
// preformatted header assignments, one batched throttle sleep, per-stripe
// atomic accounting and shared-pattern writes. chunk and rung are range
// checked here. Error and chaos paths may allocate freely.
func (o *Origin) serveSegment(w http.ResponseWriter, r *http.Request, ce *catalogEntry, chunk, rung int) {
	sid := wire.QueryParam(r.URL.RawQuery, "sid")
	if sid == "" {
		http.Error(w, "origin: segment request without sid (join via POST /session)", http.StatusBadRequest)
		return
	}
	// Resolve and mark in-flight atomically: once this request holds the
	// session, neither DELETE /session nor the janitor can remove it until
	// the stream drains, so its bytes always land on a registered session.
	sess, ok := o.lookupSessionStream(sid)
	if !ok {
		http.Error(w, fmt.Sprintf("origin: no session %q (expired?)", sid), http.StatusNotFound)
		return
	}
	held := true
	defer func() {
		if held {
			sess.inflight.Add(-1)
		}
	}()
	var segStart time.Time
	if o.events != nil {
		segStart = time.Now()
	}
	if sess.videoName != ce.v.Name {
		http.Error(w, fmt.Sprintf("origin: session %s is pinned to %q, not %q", sid, sess.videoName, ce.v.Name), http.StatusConflict)
		return
	}
	if chunk < 0 || chunk >= ce.v.NumChunks() || rung < 0 || rung >= len(ce.v.Ladder) {
		http.Error(w, "origin: segment out of range", http.StatusNotFound)
		return
	}
	i := chunk*len(ce.v.Ladder) + rung
	size := ce.sizes[i]
	h := w.Header()
	h["Content-Type"] = hdrVideoMP4
	// A one-element window onto the shared slab, capped so an append by
	// anything downstream copies instead of writing into its neighbour.
	h["Content-Length"] = ce.clHdrs[i : i+1 : i+1]
	// Staleness beacon: the video's current profile epoch rides on every
	// segment so clients detect a refresh without polling. The stamp is a
	// lock-free peek, never a campaign — a cold video simply advertises 0.
	h[wire.WeightEpochHeader] = o.currentStamp(ce).header

	// Injected truncation (the chaos middleware planted a plan in the
	// request context): declare the full Content-Length above but deliver
	// only a prefix, then abort the connection. Only the delivered bytes
	// are counted — never the segment itself — so the client's partial read
	// and this ledger agree exactly under retry.
	deliver := size
	truncated := false
	if frac, ok := chaos.TruncationFraction(r.Context()); ok && size >= 2 {
		deliver = int(float64(size) * frac)
		if deliver < 1 {
			deliver = 1
		}
		if deliver >= size {
			deliver = size - 1
		}
		truncated = true
		w.Header().Set(chaos.InjectedHeader, string(chaos.ModeTruncate))
	}

	// Headers go out before the shaped sleep, so the client observes the
	// stream as in flight (and DELETE gets its 409) for the whole shaped
	// duration — the same externally visible window as when the sleep was
	// spread across slices.
	w.WriteHeader(http.StatusOK)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	// One batched throttle for the whole delivery: Throttle returns the
	// incremental virtual duration of these bytes, so one call for the
	// whole body is arithmetically identical to one per slice — the total
	// shaped duration is unchanged — but the stream pays one timer wakeup
	// per segment instead of one per 256 KiB. Clients tolerate the
	// front-loaded sleep: their request timeout bounds the whole transfer,
	// not time-to-first-byte.
	if !o.cfg.Clock.Sleep(r.Context(), sess.shaper.Throttle(deliver)) {
		return // client went away mid-throttle
	}
	// Accounting happens before the corresponding Write: Content-Length is
	// set, so the moment the last slice hits the socket the client may
	// observe the transfer complete and read /stats — counters updated
	// after that Write would race with the read.
	sess.touch(o.cfg.Clock.Now())
	sess.bytes.Add(int64(deliver))
	sess.shard.bytes.Add(int64(deliver))
	// Event-plane mirror, settled with the rest of the accounting — before
	// the final Write — so a client that observes the transfer complete and
	// immediately drains /events finds this delivery's event. One
	// origin_segment event per delivery (partial deliveries included: their
	// bytes are real wire bytes) plus the aggregate registry. Ring emits
	// never block and never allocate, so the zero-alloc steady-state
	// contract holds with the plane on.
	if o.events != nil {
		wire := time.Since(segStart)
		qlog.Emit(sess.ring, o.events, qlog.Event{
			T: o.cfg.Clock.Now(), Kind: qlog.KindOriginSegment,
			Chunk: int32(chunk), Rung: int32(rung),
			Bytes: int64(deliver), Wire: wire,
		})
		o.events.SegmentLatency.Observe(int64(wire))
		o.events.BytesServed.Add(int64(deliver))
		if !truncated {
			o.events.SegmentsServed.Inc()
		}
	}
	remaining := deliver
	for remaining > 0 {
		n := len(segmentPattern)
		if remaining < n {
			n = remaining
		}
		if remaining == n && !truncated {
			sess.segments.Add(1)
			sess.shard.segments.Add(1)
			ce.hits.Add(1)
			// The moment this final slice hits the socket the client may
			// observe the transfer complete and immediately DELETE the
			// session; the in-flight mark must already be gone by then or
			// a clean hang-up races into a spurious 409.
			held = false
			sess.inflight.Add(-1)
		}
		if _, err := w.Write(segmentPattern[:n]); err != nil {
			return // client went away
		}
		remaining -= n
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	if truncated {
		// Hang up mid-transfer: the flushed prefix reaches the client,
		// which must observe a short body, not a clean EOF at the declared
		// length. The deferred release clears the in-flight mark.
		panic(http.ErrAbortHandler)
	}
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
