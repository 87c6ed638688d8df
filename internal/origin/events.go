package origin

import (
	"net/http"
	"strconv"

	"sensei/internal/chaos"
	"sensei/internal/qlog"
	"sensei/internal/wire"
)

// EventsConfig enables the qlog session event plane on an origin: every
// session gets a bounded lock-free ring mirroring the server side of its
// story (join/leave, segment deliveries, rating verdicts), drained
// incrementally via GET /events?sid=&since=; injected chaos faults land on
// a process-level ring (drained with no sid); and GET /metrics serves the
// aggregate registry as Prometheus text. Emitters ride the serving hot
// path, so everything here is non-blocking and allocation-free in steady
// state — a full ring drops and counts, never stalls a segment.
type EventsConfig struct {
	// RingCapacity caps each session's event ring (rounded up to a power
	// of two; 0 = qlog.DefaultRingCapacity). It is a cap, not a cost: a
	// ring allocates 8 KiB blocks of 64 slots as events reach them, so a
	// session's memory follows what it emits. Set it above the session's
	// expected event volume: a drop voids the trace's witness status.
	RingCapacity int
	// Metrics, when non-nil, is an externally owned aggregate registry.
	// The fleet harness shares one registry between its clients and the
	// origin, and the multi-origin router injects one into every shard so
	// /metrics on any shard is the whole deployment. Nil builds a private
	// one.
	Metrics *qlog.Metrics
}

// ringCapacity resolves the configured per-session ring size.
func (c *EventsConfig) ringCapacity() int {
	if c == nil || c.RingCapacity <= 0 {
		return qlog.DefaultRingCapacity
	}
	return c.RingCapacity
}

// EventRing returns the server-side event ring for one live session, or
// the process ring when sid is empty (nil when the plane is disabled or
// the session is unknown). Its one caller outside this package is the
// router's sid-less GET /events fan-out, which passes "" to drain each
// shard's process ring; a session's ring is read over GET /events?sid=.
func (o *Origin) EventRing(sid string) *qlog.Ring {
	if o.events == nil {
		return nil
	}
	if sid == "" {
		return o.procRing
	}
	sh := o.shardFor(sid)
	sh.mu.RLock()
	s, ok := sh.sessions[sid]
	sh.mu.RUnlock()
	if !ok {
		return nil
	}
	return s.ring
}

// DrainProcessTally consumes the process ring (injected-fault mirrors)
// into a per-kind count; zero when the event plane is disabled. An
// in-process harness that injects more faults than the ring holds drains
// as it goes.
func (o *Origin) DrainProcessTally() qlog.Tally {
	if o.procRing == nil {
		return qlog.Tally{}
	}
	return o.procRing.DrainTally()
}

// observeChaos mirrors injected faults into the event plane: counters on
// the registry, one origin_fault_injected event on the process ring. The
// chaos key is the client-chosen stream key, not a session ID, so fault
// events are process-scoped (Detail carries the chaos kind token, a
// constant; Extra the per-stream fault sequence; key and mode stay in the
// chaos journal). Runs under the injector's mutex — ring emits never
// block, so that is safe.
func (o *Origin) observeChaos(ev chaos.Event) {
	o.events.FaultsInjected.Inc()
	qlog.Emit(o.procRing, o.events, qlog.Event{
		T:      o.cfg.Clock.Now(),
		Kind:   qlog.KindOriginFaultInjected,
		Extra:  int64(ev.Seq),
		Detail: string(ev.Kind),
	})
}

// Preformatted header values for the event-plane endpoints.
var (
	hdrNDJSON   = []string{"application/x-ndjson"}
	hdrPromText = []string{"text/plain; version=0.0.4"}
)

// handleEvents is the incremental JSON-lines drain: GET /events?sid=&since=
// consumes the session's server-side ring (or the process ring when sid is
// omitted) and streams every event with Seq > since, one JSON object per
// line. Draining is destructive — events are delivered once — and since=
// exists to make wire retries idempotent, not to replay history. Like
// /stats, this endpoint is never chaos-faulted: observability stays
// reachable no matter how unhealthy the data plane is.
func (o *Origin) handleEvents(w http.ResponseWriter, r *http.Request) {
	sid := wire.QueryParam(r.URL.RawQuery, "sid")
	var since uint64
	if raw := wire.QueryParam(r.URL.RawQuery, "since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "origin: bad since cursor: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = v
	}
	ring := o.EventRing(sid)
	if ring == nil {
		http.Error(w, "origin: no event ring for session "+strconv.Quote(sid), http.StatusNotFound)
		return
	}
	events := ring.DrainSince(since, nil)
	buf := make([]byte, 0, 128*len(events))
	for i := range events {
		buf = events[i].AppendJSON(buf)
		buf = append(buf, '\n')
	}
	h := w.Header()
	h["Content-Type"] = hdrNDJSON
	h.Set(wire.RingDropsHeader, strconv.FormatInt(ring.Drops(), 10))
	_, _ = w.Write(buf)
}

// handleMetrics serves the aggregate registry as Prometheus text. The
// serving path is lock-free and steady-state zero-alloc (pinned by
// TestMetricsSteadyStateZeroAlloc): the render buffer is recycled through
// an atomic holder — concurrent scrapes race for it and the loser
// allocates a fresh one, which is the cold path. Never chaos-faulted.
func (o *Origin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	bp := o.metricsBuf.Swap(nil)
	if bp == nil {
		bp = new([]byte)
	}
	b := o.events.AppendPrometheus((*bp)[:0])
	h := w.Header()
	h["Content-Type"] = hdrPromText
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*bp = b
	o.metricsBuf.Store(bp)
}
