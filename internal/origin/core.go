package origin

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/ingest"
	"sensei/internal/qlog"
	"sensei/internal/wire"
)

// route names one of the origin's typed routes: the ones the core answers.
// /stats, /events and /metrics are observability, not routes of the
// protocol, and stay plain handlers.
type route uint8

const (
	routeJoin route = iota + 1 // join, refresh and rating read a JSON body
	routeRefresh
	routeRating
	routeLeave
	routeManifest
	routeSegment
	routeWeights
)

// kinds is each route's chaos endpoint kind. /refresh has none: operator
// controls stay reachable no matter how unhealthy the data plane is.
var kinds = [...]chaos.Kind{
	routeJoin:     chaos.KindSession,
	routeRating:   chaos.KindRating,
	routeLeave:    chaos.KindSession,
	routeManifest: chaos.KindManifest,
	routeSegment:  chaos.KindSegment,
	routeWeights:  chaos.KindWeights,
}

// request is what an adapter hands the core: a route and the parts of the
// HTTP request it reads.
type request struct {
	route route
	sid   string // ?sid=
	// id is a leave's session ID, or the ID a join registers ("" mints
	// one; the router passes the ID it minted to pick the shard).
	id    string
	video string // manifest and segment
	chunk int    // segment; -1 when the path's numbers do not parse
	rung  int
	body  []byte   // join, refresh and rating: the body, read whole
	err   error    // what cut reading the body short
	buf   *bodyBuf // the pooled buffer body was read into and a reply is encoded over
	// truncate is set when chaos cuts this segment short.
	truncate bool
}

// parse reads r as one of the client's routes without allocating: a clean
// path (RawPath empty) that ServeMux would route to the same route and
// wildcards, POST /rating only when rating is set (the closed loop is on).
// Anything else is left to the mux.
func parse(r *http.Request, rating bool) (q request, ok bool) {
	if r.URL.RawPath != "" {
		return q, false
	}
	p := r.URL.Path
	switch r.Method {
	case http.MethodGet:
		if p == "/weights" {
			return request{route: routeWeights}, true
		}
		if q.video, q.chunk, q.rung, ok = wire.ParseSegmentPath(p); ok {
			q.route = routeSegment
			return q, true
		}
		q.route = routeManifest
		q.video, ok = wire.PathElement(p, "/v/", "/manifest.mpd")
	case http.MethodPost:
		if p == "/session" {
			return request{route: routeJoin}, true
		}
		return request{route: routeRating}, p == "/rating" && rating
	case http.MethodDelete:
		q.route = routeLeave
		q.id, ok = wire.PathElement(p, "/session/", "")
	}
	return q, ok
}

// reply is a route's answer, everything an adapter needs to render it.
type reply struct {
	status int
	ctype  []string // Content-Type
	epoch  []string // wire.WeightEpochHeader; nil for none
	body   []byte   // the whole body, unless this is a segment
	// fault is the mode Injector.Decide picked ("" for none). An error
	// fault is a 503 reply; reset and stall have nothing to render.
	fault chaos.Mode
	buf   *bodyBuf // the pooled buffer a RoundTrip body returns on Close

	// A segment (sess non-nil) holds its session's in-flight mark until
	// the adapter settles it, or drops it when the client goes away
	// during the throttle.
	sess     *session
	ce       *catalogEntry
	chunk    int
	rung     int
	length   []string      // the Content-Length value, size in decimal
	size     int           // the segment's declared length
	deliver  int           // bytes delivered: size, or a truncated prefix
	throttle time.Duration // the shaper's charge for deliver bytes
	start    time.Time     // wall clock at resolve (event plane only)

	off int // body bytes handed out; -1 once a RoundTrip body is closed
}

// Preformatted single-value response headers, assigned directly into the
// header map so the steady-state data plane never formats or allocates
// header values. net/http only ever reads them, and the keys are already
// in canonical MIME form.
var (
	hdrVideoMP4     = []string{"video/mp4"}
	hdrDashXML      = []string{"application/dash+xml"}
	hdrJSON         = []string{"application/json"}
	hdrText         = []string{"text/plain; charset=utf-8"}
	hdrNosniff      = []string{"nosniff"}
	zeroEpochHeader = []string{"0"}
)

// okReply is a 200 reply.
func okReply(ctype, epoch []string, body []byte) reply {
	return reply{status: http.StatusOK, ctype: ctype, epoch: epoch, body: body}
}

// jsonReply is a 200 JSON reply: body and the newline json.Encoder used
// to write.
func jsonReply(epoch []string, body []byte) reply { return okReply(hdrJSON, epoch, append(body, '\n')) }

// fail is the reply http.Error writes: msg and a newline as text.
func fail(status int, msg string) reply {
	return reply{status: status, ctype: hdrText, body: []byte(msg + "\n")}
}

// header sets rp's headers in h.
func (rp *reply) header(h http.Header) {
	if rp.ctype != nil {
		h["Content-Type"] = rp.ctype
	}
	if rp.status >= 400 {
		h["X-Content-Type-Options"] = hdrNosniff
	}
	if rp.sess != nil {
		h["Content-Length"] = rp.length
	}
	if rp.epoch != nil {
		h[wire.WeightEpochHeader] = rp.epoch
	}
	if rp.fault != "" {
		h[chaos.InjectedHeader] = []string{string(rp.fault)}
	}
}

// answer is the origin's core: it completes q from r (the sid), decides
// q's fault and has q's route act and reply. It never sleeps, never
// panics and never touches a ResponseWriter; a faulted request never
// reaches its route, so it leaves no trace but the injector's ledger. The
// chaos stream key is the client-chosen chaos.KeyHeader, falling back to
// the session ID so ad-hoc clients still get per-session determinism.
func (o *Origin) answer(r *http.Request, q *request) reply {
	q.sid = wire.QueryParam(r.URL.RawQuery, "sid")
	if kind := kinds[q.route]; o.chaos != nil && kind != "" {
		switch mode := o.chaos.Decide(cmp.Or(r.Header.Get(chaos.KeyHeader), q.sid), kind); mode {
		case chaos.ModeError:
			rp := fail(http.StatusServiceUnavailable, "chaos: injected fault")
			rp.fault = mode
			return rp
		case chaos.ModeReset, chaos.ModeStall:
			return reply{fault: mode}
		case chaos.ModeTruncate:
			q.truncate = true
		}
	}
	switch q.route {
	case routeJoin:
		return o.join(q)
	case routeRefresh:
		return o.refresh(q)
	case routeRating:
		return o.rating(q)
	case routeLeave:
		return o.leave(q)
	case routeManifest:
		return o.manifest(q)
	case routeSegment:
		return o.segment(q)
	}
	return o.weights(q)
}

// maxBodyBytes caps a control-plane request body.
const maxBodyBytes = 4096

// bodyBuf holds one control-plane request body, read whole and parsed in
// place, and then the reply, encoded over it. The routes share a pool of
// them.
type bodyBuf [maxBodyBytes + 1]byte

var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// readBody reads rd into buf. A body over maxBodyBytes is refused with
// http.MaxBytesReader's error.
func readBody(rd io.Reader, buf *bodyBuf) ([]byte, error) {
	n, err := io.ReadFull(rd, buf[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	if n > maxBodyBytes {
		n, err = maxBodyBytes, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	return buf[:n], err
}

// --- control plane ---

// JoinRequest and JoinResponse name wire's POST /session bodies for
// bench/origin_wire.go, which predates package wire.
type (
	JoinRequest  = wire.JoinRequest
	JoinResponse = wire.JoinResponse
)

func (o *Origin) join(q *request) reply {
	var req wire.JoinRequest
	err := q.err
	if err == nil {
		err = req.Parse(q.body)
	}
	if err != nil {
		return fail(http.StatusBadRequest, "origin: bad join body: "+err.Error())
	}
	ce, ok := o.videos[req.Video]
	if !ok {
		return fail(http.StatusNotFound, fmt.Sprintf("origin: video %q not in catalog", req.Video))
	}
	traceName := req.Trace
	if traceName == "" {
		traceName = o.cfg.DefaultTrace
	}
	tr, ok := o.cfg.Traces[traceName]
	if !ok {
		return fail(http.StatusBadRequest, fmt.Sprintf("origin: trace %q not offered", traceName))
	}
	scale := req.TimeScale
	if scale == 0 {
		scale = o.cfg.TimeScale
	}
	if scale <= 0 {
		return fail(http.StatusBadRequest, fmt.Sprintf("origin: invalid timescale %v", req.TimeScale))
	}
	shaper, err := NewShaper(tr, scale, o.cfg.Clock)
	if err != nil {
		return fail(http.StatusInternalServerError, err.Error())
	}
	id := q.id
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
		return fail(http.StatusServiceUnavailable, "origin: session registry full")
	}
	if o.events != nil {
		o.events.SessionsJoined.Inc()
		qlog.Emit(s.ring, o.events, qlog.Event{
			T: s.created, Kind: qlog.KindOriginJoin, Detail: ce.v.Name,
		})
	}
	o.logf("origin: session %s joined: video=%q trace=%q timescale=%g", s.id, ce.v.Name, traceName, scale)
	return jsonReply(nil, (&wire.JoinResponse{
		SessionID: s.id,
		Video:     ce.v.Name,
		Trace:     traceName,
		TimeScale: scale,
	}).AppendJSON(q.buf[:0]))
}

func (o *Origin) leave(q *request) reply {
	id := q.id
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
		return fail(http.StatusNotFound, fmt.Sprintf("origin: no session %q", id))
	case removeBusy:
		// Mirror the janitor: an in-flight session is never reaped. 409
		// tells the client to drain (or abort) its stream and retry.
		return fail(http.StatusConflict, fmt.Sprintf("origin: session %q has a stream in flight; drain it and retry", id))
	}
	if ring != nil {
		qlog.Emit(ring, o.events, qlog.Event{
			T: o.cfg.Clock.Now(), Kind: qlog.KindOriginLeave,
			Bytes: finalBytes, Extra: finalSegs,
		})
	}
	o.logf("origin: session %s left", id)
	return reply{status: http.StatusNoContent}
}

// --- data plane ---

func (o *Origin) manifest(q *request) reply {
	ce, ok := o.videos[q.video]
	if !ok {
		return fail(http.StatusNotFound, fmt.Sprintf("origin: video %q not in catalog", q.video))
	}
	if q.sid != "" {
		o.lookupSession(q.sid) // refresh the idle clock; manifests work without a session too
	}
	p, err := o.profileOf(ce)
	if err != nil {
		o.logf("origin: profiling %q: %v", ce.v.Name, err)
		return fail(http.StatusInternalServerError, err.Error())
	}
	mb := ce.manifest.Load()
	if mb == nil || mb.epoch != p.Epoch {
		mpd, err := wire.BuildMPDProfile(ce.v, p.Weights, p.Epoch)
		if err != nil {
			return fail(http.StatusInternalServerError, err.Error())
		}
		mb = &cachedBody{stampOf(p.Epoch), mpd.AppendMPD(nil)}
		ce.manifest.Store(mb)
	}
	o.manifestsServed.Add(1)
	return okReply(hdrDashXML, mb.header, mb.body)
}

// weights serves the current profile snapshot for the session named by
// ?sid=. At join time the manifest already carries the same data; this
// route exists for the mid-stream refresh: a client that sees a newer
// epoch on a segment response fetches the new vector here before its next
// decision. The body is serialized once per epoch and cached.
func (o *Origin) weights(q *request) reply {
	if q.sid == "" {
		return fail(http.StatusBadRequest, "origin: weights request without sid (join via POST /session)")
	}
	sess, ok := o.lookupSession(q.sid)
	if !ok {
		return fail(http.StatusNotFound, fmt.Sprintf("origin: no session %q (expired?)", q.sid))
	}
	ce, ok := o.videos[sess.videoName]
	if !ok {
		return fail(http.StatusInternalServerError, fmt.Sprintf("origin: session video %q gone from catalog", sess.videoName))
	}
	p, err := o.profileOf(ce)
	if err != nil {
		return fail(http.StatusInternalServerError, err.Error())
	}
	wb := ce.weights.Load()
	if wb == nil || wb.epoch != p.Epoch {
		// Room for any float as json writes it, and its comma, per weight.
		buf := make([]byte, 0, 64+len(p.VideoName)+26*len(p.Weights))
		body := (&wire.WeightsResponse{Video: p.VideoName, Epoch: p.Epoch, Weights: p.Weights}).AppendJSON(buf)
		wb = &cachedBody{stampOf(p.Epoch), append(body, '\n')}
		ce.weights.Store(wb)
	}
	o.weightsServed.Add(1)
	return okReply(hdrJSON, wb.header, wb.body)
}

func (o *Origin) refresh(q *request) reply {
	var req wire.RefreshRequest
	err := q.err
	if err == nil {
		err = req.Parse(q.body)
	}
	if err != nil {
		return fail(http.StatusBadRequest, "origin: bad refresh body: "+err.Error())
	}
	if _, ok := o.videos[req.Video]; !ok {
		return fail(http.StatusNotFound, fmt.Sprintf("origin: video %q not in catalog", req.Video))
	}
	p, err := o.RefreshWeights(req.Video, req.From, req.To)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error())
	}
	return jsonReply(stampOf(p.Epoch).header, (&wire.RefreshResponse{Video: p.VideoName, Epoch: p.Epoch}).AppendJSON(q.buf[:0]))
}

// rating feeds one client rating into the ingest plane (a route only when
// the closed loop is enabled). The rating is attributed through the
// session — clients never name videos directly on this path — and a
// rating is activity for the idle janitor, like any other request.
func (o *Origin) rating(q *request) reply {
	var req wire.RatingRequest
	err := q.err
	if err == nil {
		err = req.Parse(q.body)
	}
	if err != nil {
		return fail(http.StatusBadRequest, "origin: bad rating body: "+err.Error())
	}
	sess, ok := o.lookupSession(req.SessionID)
	if !ok {
		return fail(http.StatusNotFound, fmt.Sprintf("origin: no session %q (expired?)", req.SessionID))
	}
	ce, ok := o.videos[sess.videoName]
	if !ok {
		return fail(http.StatusInternalServerError, fmt.Sprintf("origin: session video %q gone from catalog", sess.videoName))
	}
	outcome, err := o.feedback.Ingest(ce.v, req.Chunk, req.Epoch, req.Rating)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error())
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
	return jsonReply(cur.header, (&wire.RatingResponse{
		Video:  ce.v.Name,
		Chunk:  req.Chunk,
		Status: status,
		Epoch:  cur.epoch,
	}).AppendJSON(q.buf[:0]))
}

// segmentPattern is the shared read-only payload source: adapters slice it
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

// segment is the zero-allocation steady-state hot path (pinned by
// TestSegmentSteadyStateZeroAlloc): a striped-registry lookup that marks
// the session in flight, range checks, and the shaper's throttle for the
// bytes to deliver. Error and chaos paths may allocate freely.
func (o *Origin) segment(q *request) reply {
	ce, ok := o.videos[q.video]
	if !ok {
		return fail(http.StatusNotFound, fmt.Sprintf("origin: video %q not in catalog", q.video))
	}
	if q.sid == "" {
		return fail(http.StatusBadRequest, "origin: segment request without sid (join via POST /session)")
	}
	// Resolve and mark in-flight atomically: once this request holds the
	// session, neither DELETE /session nor the janitor can remove it until
	// the adapter settles, so its bytes always land on a registered
	// session.
	sess, ok := o.lookupSessionStream(q.sid)
	if !ok {
		return fail(http.StatusNotFound, fmt.Sprintf("origin: no session %q (expired?)", q.sid))
	}
	var start time.Time
	if o.events != nil {
		start = time.Now()
	}
	if sess.videoName != ce.v.Name {
		sess.inflight.Add(-1)
		return fail(http.StatusConflict, fmt.Sprintf("origin: session %s is pinned to %q, not %q", q.sid, sess.videoName, ce.v.Name))
	}
	chunk, rung := q.chunk, q.rung
	if chunk < 0 || chunk >= ce.v.NumChunks() || rung < 0 || rung >= len(ce.v.Ladder) {
		sess.inflight.Add(-1)
		return fail(http.StatusNotFound, "origin: segment out of range")
	}
	i := chunk*len(ce.v.Ladder) + rung
	// Staleness beacon: the video's current profile epoch rides on every
	// segment so clients detect a refresh without polling. The stamp is a
	// lock-free peek, never a campaign — a cold video simply advertises 0.
	rp := okReply(hdrVideoMP4, o.currentStamp(ce).header, nil)
	rp.sess, rp.ce, rp.chunk, rp.rung, rp.start = sess, ce, chunk, rung, start
	// A one-element window onto the shared slab, capped so an append by
	// anything downstream copies instead of writing into its neighbour.
	rp.length = ce.clHdrs[i : i+1 : i+1]
	rp.size, rp.deliver = ce.sizes[i], ce.sizes[i]
	// Injected truncation declares the full Content-Length but delivers
	// only a prefix. Only the delivered bytes are counted — never the
	// segment itself — so the client's partial read and the ledger agree
	// exactly under retry.
	if q.truncate {
		pol := o.chaos.Policy()
		if rp.deliver = pol.Truncate(rp.size); rp.deliver < rp.size {
			rp.fault = chaos.ModeTruncate
		}
	}
	// One batched throttle for the whole delivery: Throttle returns the
	// incremental virtual duration of these bytes, so one call for the
	// whole body is arithmetically identical to one per slice, but the
	// stream pays one timer wakeup per segment instead of one per 256 KiB.
	// Clients tolerate the front-loaded sleep: their request timeout bounds
	// the whole transfer, not time-to-first-byte.
	rp.throttle = sess.shaper.Throttle(rp.deliver)
	return rp
}

// settle does a segment's accounting once its throttle is slept, in the
// order a client can observe it: the session's idle clock and byte
// ledgers, the event plane's mirror, then — for a whole delivery — the
// segment counters, and last the in-flight release. Adapters settle before
// they hand over a byte: the moment the last one arrives the client may
// read /stats or /events and expect this delivery there, or DELETE the
// session and expect no 409.
func (o *Origin) settle(rp *reply) {
	s, n, whole := rp.sess, int64(rp.deliver), rp.deliver == rp.size
	s.touch(o.cfg.Clock.Now())
	s.bytes.Add(n)
	s.shard.bytes.Add(n)
	// One origin_segment event per delivery (partial deliveries included:
	// their bytes are real wire bytes) plus the aggregate registry. Ring
	// emits never block and never allocate, so the zero-alloc steady-state
	// contract holds with the plane on.
	if o.events != nil {
		lat := time.Since(rp.start)
		qlog.Emit(s.ring, o.events, qlog.Event{
			T: o.cfg.Clock.Now(), Kind: qlog.KindOriginSegment,
			Chunk: int32(rp.chunk), Rung: int32(rp.rung),
			Bytes: n, Wire: lat,
		})
		o.events.SegmentLatency.Observe(int64(lat))
		o.events.BytesServed.Add(n)
		if whole {
			o.events.SegmentsServed.Inc()
		}
	}
	if whole {
		s.segments.Add(1)
		s.shard.segments.Add(1)
		rp.ce.hits.Add(1)
	}
	s.inflight.Add(-1)
}

// statusLine is an http.Response's Status for code.
func statusLine(code int) string {
	if code == http.StatusOK {
		return "200 OK"
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}
