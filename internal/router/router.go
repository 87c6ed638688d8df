// Package router fronts N origin shards behind one listener, scaling the
// SENSEI delivery plane across processes' worth of session registries
// without changing the client protocol at all.
//
// Sessions are sticky: POST /session mints the session ID in the router,
// picks the owning shard by consistent hash (ring.go) and hands the ID to
// that shard's join, so the shard registers exactly that ID. Every later
// request carrying the sid — segments, weights, manifests, DELETE — hashes
// the sid back to the same shard with no router-side session table:
// routing is stateless, in-process (the shards are origin.Origins, not
// remote proxies), and adds two string hashes to the hot path. The router
// has the origin's two adapters: ServeHTTP for sockets, and Call for the
// fleet, which picks the shard the same way and calls its Call.
//
// The sensitivity plane stays global: all shards share one
// origin.WeightService, so a video profiles at most once per process,
// POST /refresh (routed to shard 0) bumps the epoch for every shard at
// once, and the wire.WeightEpochHeader beacon is consistent no matter
// which shard stamps it.
//
// GET /stats fans out and merges: the response is the familiar
// origin.Stats shape with every counter summed across shards, plus a
// "shards" array holding each shard's own ledger so harnesses can
// reconcile the merge exactly (sum of shard rows == merged totals). It is
// a typed route too: Call answers wire.RouteStats with the same bytes.
//
// GET /events without a sid drains every shard's process ring. Each ring
// numbers its events from 1 and drains destructively, so one since cursor
// cannot span them: the fan-out refuses a non-zero since with 400, and a
// poller drains with none (each event is delivered once either way).
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"sensei/internal/chaos"
	"sensei/internal/origin"
	"sensei/internal/qlog"
	"sensei/internal/sensitivity"
	"sensei/internal/wire"
)

// DefaultShards is the shard count used when Config.Shards is 0.
const DefaultShards = 4

// Config assembles a Router.
type Config struct {
	// Shards is the number of origin shards to front (default
	// DefaultShards).
	Shards int
	// Origin is the per-shard origin template. Catalog, traces, chaos
	// policy and timeouts apply to every shard identically; Profile and
	// WeightDir configure the single weight service all shards share.
	// Origin.Weights must be nil (the router owns the shared service) and
	// Origin.Ingest must be nil — the feedback autopilot aggregates
	// per-video evidence in one plane and is not yet shard-aware.
	Origin origin.Config
}

// Router fronts the shards. It implements http.Handler and wire.Caller
// with the same endpoint surface as a single origin.
type Router struct {
	cfg    Config
	shards []*origin.Origin
	ring   *ring
	mux    *http.ServeMux
}

// New validates cfg and builds the router and its shards.
// Callers must Close it (Server.Shutdown does).
func New(cfg Config) (*Router, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("router: %d shards", cfg.Shards)
	}
	if cfg.Origin.Ingest != nil {
		return nil, fmt.Errorf("router: feedback ingest is not shard-aware; run a single origin for -autopilot")
	}
	if cfg.Origin.Weights != nil {
		return nil, fmt.Errorf("router: Origin.Weights is router-owned; configure Profile/WeightDir instead")
	}
	rt := &Router{cfg: cfg, ring: newRing(cfg.Shards)}
	store := origin.NewWeightService(cfg.Origin.WeightDir, cfg.Origin.Profile, cfg.Origin.Logf)
	// One aggregate metrics registry for the whole deployment: every shard
	// observes into the same padded atomics, so GET /metrics on any shard
	// (the router routes it to shard 0) is the merged exposition — no
	// fan-out-and-sum needed on the scrape path.
	var sharedMetrics *qlog.Metrics
	if cfg.Origin.Events != nil {
		sharedMetrics = cfg.Origin.Events.Metrics
		if sharedMetrics == nil {
			sharedMetrics = &qlog.Metrics{}
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		shardCfg := cfg.Origin
		shardCfg.Weights = store
		shardCfg.Shard = i
		if cfg.Origin.Events != nil {
			ev := *cfg.Origin.Events
			ev.Metrics = sharedMetrics
			shardCfg.Events = &ev
		}
		o, err := origin.New(shardCfg)
		if err != nil {
			for _, prev := range rt.shards {
				prev.Close()
			}
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		rt.shards = append(rt.shards, o)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", rt.handleJoin)
	mux.HandleFunc("DELETE /session/{id}", rt.routeBySessionID)
	mux.HandleFunc("GET /v/{video}/manifest.mpd", rt.routeBySID)
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", rt.routeBySID)
	mux.HandleFunc("GET /weights", rt.routeBySID)
	mux.HandleFunc("POST /refresh", rt.routeToShard0)
	mux.HandleFunc("GET /stats", rt.handleStats)
	// Event plane: a session drain goes to the shard that owns the sid; the
	// process-ring drain (no sid) fans out and merges. /metrics can go to
	// any shard — the registry is shared — so it takes the shard-0 route.
	// When the event plane is disabled the shards 404 these, like a single
	// origin would.
	mux.HandleFunc("GET /events", rt.handleEvents)
	mux.HandleFunc("GET /metrics", rt.routeToShard0)
	rt.mux = mux
	return rt, nil
}

// Close closes every shard (janitors stop; in-flight requests are the
// server's problem, as with a single origin).
func (rt *Router) Close() {
	for _, o := range rt.shards {
		o.Close()
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Call is the fleet's adapter, routing as ServeHTTP does: a join is minted
// its ID here and goes to the shard that ID names, a refresh to shard 0, a
// leave to the shard of the session it ends, and every other call to the
// shard its sid names, as routeBySID sends it. The shard answers on the
// caller's goroutine. The router answers /stats itself, with the merge,
// and a ctx done on arrival with ctx.Err(), like origin.Call.
func (rt *Router) Call(ctx context.Context, c *wire.Call, a *wire.Answer) error {
	*a = wire.Answer{Body: a.Body[:0]}
	if err := ctx.Err(); err != nil {
		return err
	}
	key := c.SID
	switch c.Route {
	case wire.RouteStats:
		a.Status, a.Body = http.StatusOK, rt.appendStats(a.Body)
		a.N, a.Len = int64(len(a.Body)), int64(len(a.Body))
		return nil
	case wire.RouteJoin:
		j := *c
		j.ID = origin.NewSessionID()
		return rt.shards[rt.ring.Owner(j.ID)].Call(ctx, &j, a)
	case wire.RouteRefresh:
		return rt.shards[0].Call(ctx, c, a)
	case wire.RouteLeave:
		key = c.ID
	}
	return rt.shards[rt.ring.Owner(key)].Call(ctx, c, a)
}

// handleJoin assigns the session its shard: mint the ID here, pick the
// owner by hash, and let the shard register exactly that ID. Clients keep
// the protocol they already speak.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	id := origin.NewSessionID()
	rt.shards[rt.ring.Owner(id)].ServeJoin(w, r, id)
}

// routeBySessionID routes DELETE /session/{id} by the path's session ID.
func (rt *Router) routeBySessionID(w http.ResponseWriter, r *http.Request) {
	rt.shards[rt.ring.Owner(r.PathValue("id"))].ServeHTTP(w, r)
}

// routeBySID routes data-plane requests by the ?sid= query parameter.
// Requests without a sid (a manifest fetched before joining) go to the
// shard the ring names for the empty ID — any shard can serve them, the
// weight plane is shared.
func (rt *Router) routeBySID(w http.ResponseWriter, r *http.Request) {
	rt.shards[rt.ring.Owner(wire.QueryParam(r.URL.RawQuery, "sid"))].ServeHTTP(w, r)
}

// routeToShard0 routes epoch-bumping control traffic to shard 0: the
// weight service is shared, so one shard's publish is every shard's
// publish.
func (rt *Router) routeToShard0(w http.ResponseWriter, r *http.Request) {
	rt.shards[0].ServeHTTP(w, r)
}

// handleEvents is the router's GET /events: a session's drain routes to
// the shard owning the sid (session rings are shard-sticky, like every
// other per-session resource); the process-ring drain (no sid) fans out
// across every shard — each shard's chaos injector mirrors into its own
// process ring — and merges the JSON lines, summing the drop header. The
// shards' rings number their events separately, so the fan-out takes no
// since cursor.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	if sid := wire.QueryParam(r.URL.RawQuery, "sid"); sid != "" {
		rt.shards[rt.ring.Owner(sid)].ServeHTTP(w, r)
		return
	}
	if raw := wire.QueryParam(r.URL.RawQuery, "since"); raw != "" {
		if v, err := strconv.ParseUint(raw, 10, 64); err != nil {
			http.Error(w, "router: bad since cursor: "+err.Error(), http.StatusBadRequest)
			return
		} else if v != 0 {
			http.Error(w, "router: a since cursor needs a sid", http.StatusBadRequest)
			return
		}
	}
	var buf []byte
	var drops int64
	enabled := false
	for _, o := range rt.shards {
		ring := o.EventRing("")
		if ring == nil {
			continue
		}
		enabled = true
		events := ring.Drain(nil)
		for i := range events {
			buf = events[i].AppendJSON(buf)
			buf = append(buf, '\n')
		}
		drops += ring.Drops()
	}
	if !enabled {
		http.Error(w, "router: event plane disabled", http.StatusNotFound)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set(wire.RingDropsHeader, strconv.FormatInt(drops, 10))
	_, _ = w.Write(buf)
}

// DrainProcessTally consumes every shard's process ring into one tally.
func (rt *Router) DrainProcessTally() qlog.Tally {
	var t qlog.Tally
	for _, o := range rt.shards {
		st := o.DrainProcessTally()
		for k, n := range st.Counts {
			t.Counts[k] += n
		}
		t.Drops, t.Bytes = t.Drops+st.Drops, t.Bytes+st.Bytes
	}
	return t
}

// SessionsCreated sums the shards' join counters (lock-free; the fleet's
// refresh watcher polls it).
func (rt *Router) SessionsCreated() int64 {
	var n int64
	for _, o := range rt.shards {
		n += o.SessionsCreated()
	}
	return n
}

// PublishWeights pushes a refresh through the shared weight service (any
// shard works; shard 0 logs it).
func (rt *Router) PublishWeights(videoName string, weights []float64) (*sensitivity.Profile, error) {
	return rt.shards[0].PublishWeights(videoName, weights)
}

// DrainIngest exists for interface parity with origin.Origin; the router
// rejects ingest at construction, so there is never anything to drain.
func (rt *Router) DrainIngest(ctx context.Context) error {
	for _, o := range rt.shards {
		if err := o.DrainIngest(ctx); err != nil {
			return err
		}
	}
	return nil
}

// ChaosJournal concatenates the shards' fault journals. Streams are
// shard-sticky, so each (session, endpoint) stream's fault sequence lives
// whole in exactly one shard's journal and per-stream replay still proves
// out against the policy seed.
func (rt *Router) ChaosJournal() []chaos.Event {
	var all []chaos.Event
	for _, o := range rt.shards {
		all = append(all, o.ChaosJournal()...)
	}
	return all
}

// Stats is the router's /stats payload: the merged origin.Stats every
// existing consumer already decodes, plus the per-shard ledgers that prove
// the merge.
type Stats struct {
	origin.Stats
	Shards []origin.Stats `json:"shards"`
}

// Stats fans out to every shard and merges. Counter fields sum; the
// profile-plane fields (ProfilesComputed/FromDisk/Refreshed, WeightEpochs)
// come from shard 0 verbatim — the weight service is shared, so every
// shard reports identical values and summing would overcount.
func (rt *Router) Stats() Stats {
	per := make([]origin.Stats, len(rt.shards))
	for i, o := range rt.shards {
		per[i] = o.Stats()
	}
	merged := origin.Stats{
		ProfilesComputed:  per[0].ProfilesComputed,
		ProfilesFromDisk:  per[0].ProfilesFromDisk,
		ProfilesRefreshed: per[0].ProfilesRefreshed,
		WeightEpochs:      per[0].WeightEpochs,
		VideoHits:         map[string]int64{},
	}
	for _, s := range per {
		merged.ActiveSessions += s.ActiveSessions
		merged.SessionsCreated += s.SessionsCreated
		merged.SessionsClosed += s.SessionsClosed
		merged.SessionsExpired += s.SessionsExpired
		merged.BytesServed += s.BytesServed
		merged.SegmentsServed += s.SegmentsServed
		merged.ManifestsServed += s.ManifestsServed
		merged.WeightsServed += s.WeightsServed
		for name, n := range s.VideoHits {
			merged.VideoHits[name] += n
		}
		if s.Chaos != nil {
			if merged.Chaos == nil {
				merged.Chaos = &chaos.Stats{ByKind: map[string]int64{}, ByMode: map[string]int64{}}
			}
			merged.Chaos.Total += s.Chaos.Total
			merged.Chaos.JournalDropped += s.Chaos.JournalDropped
			for k, n := range s.Chaos.ByKind {
				merged.Chaos.ByKind[k] += n
			}
			for m, n := range s.Chaos.ByMode {
				merged.Chaos.ByMode[m] += n
			}
		}
		merged.Sessions = append(merged.Sessions, s.Sessions...)
	}
	sort.Slice(merged.Sessions, func(i, j int) bool { return merged.Sessions[i].ID < merged.Sessions[j].ID })
	return Stats{Stats: merged, Shards: per}
}

// appendStats appends Stats to dst as GET /stats renders it: indented
// JSON and a newline, over a socket and through Call alike.
func (rt *Router) appendStats(dst []byte) []byte {
	body, _ := json.MarshalIndent(rt.Stats(), "", "  ")
	return append(append(dst, body...), '\n')
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(rt.appendStats(nil))
}
