package origin

import (
	"cmp"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"

	"sensei/internal/chaos"
	"sensei/internal/wire"
)

// The origin's core answers a request with a reply; two adapters render
// it. ServeHTTP is the socket adapter: it writes the reply onto an
// http.ResponseWriter, sleeps the segment throttle or a chaos stall on the
// origin's clock between the headers and the body, and aborts with
// http.ErrAbortHandler for a reset, a stall or a truncation. RoundTrip is
// the fleet's adapter: an http.RoundTripper that answers on the caller's
// goroutine, sleeps the same sleeps there and returns the reply as an
// http.Response, without a connection, a handler or a copy of the body.

// errAborted is RoundTrip's error for a request chaos reset or stalled:
// what a client over a socket sees as a connection closed without a
// reply.
var errAborted = errors.New("origin: connection closed without a reply")

// ServeHTTP implements http.Handler. The client's routes go straight to
// the core; ServeMux answers everything else — a HEAD, an escaped or
// unclean path, /refresh, /stats and the event plane.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if q, ok := parse(r, o.feedback != nil); ok {
		o.serve(w, r, q)
		return
	}
	o.mux.ServeHTTP(w, r)
}

// ServeJoin serves POST /session registering the session as id: the
// router mints the ID to pick the shard, and hands it over here.
func (o *Origin) ServeJoin(w http.ResponseWriter, r *http.Request, id string) {
	o.serve(w, r, request{route: routeJoin, id: id})
}

// ShardKey reports the session ID a router shards r by, when r is a
// client route that names one: a leave by its path's ID, a manifest,
// segment or weights GET by its ?sid= (empty for a manifest fetched before
// joining). Its shard's RoundTrip then takes r to the core.
func ShardKey(r *http.Request) (string, bool) {
	q, ok := parse(r, false)
	switch {
	case ok && q.route == routeLeave:
		return q.id, true
	case ok && (q.route == routeManifest || q.route == routeSegment || q.route == routeWeights):
		return wire.QueryParam(r.URL.RawQuery, "sid"), true
	}
	return "", false
}

// handle is the mux's entry to rt, for the requests parse leaves to it,
// with the wildcards the mux captured.
func (o *Origin) handle(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		o.serve(w, r, request{route: rt, id: r.PathValue("id"), video: r.PathValue("video")})
	}
}

// handleSegment is the mux's segment route: the captures are parsed as
// they always were, and a number that does not parse is refused as out of
// range, after the session checks, like one that does.
func (o *Origin) handleSegment(w http.ResponseWriter, r *http.Request) {
	q := request{route: routeSegment, video: r.PathValue("video")}
	var err1, err2 error
	q.chunk, err1 = strconv.Atoi(r.PathValue("chunk"))
	q.rung, err2 = strconv.Atoi(r.PathValue("rung"))
	if err1 != nil || err2 != nil {
		q.chunk = -1
	}
	o.serve(w, r, q)
}

// serve answers q and renders the reply onto w.
func (o *Origin) serve(w http.ResponseWriter, r *http.Request, q request) {
	if q.route <= routeRating {
		q.buf = bodyBufs.Get().(*bodyBuf)
		defer bodyBufs.Put(q.buf)
		// MaxBytesReader also closes the connection after an oversized body.
		q.body, q.err = readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), q.buf)
	}
	rp := o.answer(r, &q)
	switch rp.fault {
	case chaos.ModeReset:
		// ErrAbortHandler is net/http's sanctioned way to kill the
		// connection without a reply; the server recovers it silently.
		panic(http.ErrAbortHandler)
	case chaos.ModeStall:
		// Dead air, then hang up. The client's request context bounds the
		// wait, and either ending is one client-visible fault.
		p := o.chaos.Policy()
		o.cfg.Clock.Sleep(r.Context(), p.Stall())
		panic(http.ErrAbortHandler)
	}
	rp.header(w.Header())
	w.WriteHeader(rp.status)
	f, _ := w.(http.Flusher)
	if rp.sess != nil {
		// Headers go out before the shaped sleep, so the client observes
		// the stream as in flight (and DELETE gets its 409) for the whole
		// shaped duration.
		if f != nil {
			f.Flush()
		}
		if !o.cfg.Clock.Sleep(r.Context(), rp.throttle) {
			rp.sess.inflight.Add(-1) // the client went away mid-throttle
			return
		}
		o.settle(&rp)
	}
	if _, err := rp.WriteTo(w); err == io.ErrUnexpectedEOF {
		// Hang up mid-transfer: the flushed prefix reaches the client,
		// which must observe a short body, not a clean EOF at the declared
		// length.
		if f != nil {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
}

// RoundTrip implements http.RoundTripper: the fleet's clients reach the
// origin through it, on their own goroutines. The client's routes go to
// the core; anything else is served by ServeHTTP into a buffer (Record).
func (o *Origin) RoundTrip(r *http.Request) (*http.Response, error) {
	if q, ok := parse(r, o.feedback != nil); ok {
		return o.roundTrip(r, q)
	}
	return Record(o, r)
}

// RoundTripJoin is ServeJoin's RoundTrip.
func (o *Origin) RoundTripJoin(r *http.Request, id string) (*http.Response, error) {
	return o.roundTrip(r, request{route: routeJoin, id: id})
}

// roundTrip answers q and returns the reply as r's response. A segment's
// throttle, or a stall, is slept here, on the caller's goroutine; the
// segment is settled before the response is returned.
func (o *Origin) roundTrip(r *http.Request, q request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	ctx := r.Context()
	if err := ctx.Err(); err != nil {
		// Dead on arrival: the core must not run, as it would not over a
		// connection the client never opened.
		return nil, err
	}
	if q.route <= routeRating {
		q.buf = bodyBufs.Get().(*bodyBuf)
		q.body, q.err = readBody(cmp.Or[io.Reader](r.Body, http.NoBody), q.buf)
	}
	b := &body{reply: o.answer(r, &q)}
	rp := &b.reply
	switch {
	case rp.fault == chaos.ModeReset:
		return nil, errAborted
	case rp.fault == chaos.ModeStall:
		if p := o.chaos.Policy(); !o.cfg.Clock.Sleep(ctx, p.Stall()) {
			return nil, ctx.Err()
		}
		return nil, errAborted
	case rp.sess != nil:
		if !o.cfg.Clock.Sleep(ctx, rp.throttle) {
			rp.sess.inflight.Add(-1)
			return nil, ctx.Err()
		}
		o.settle(rp)
	}
	rp.buf = q.buf
	h := make(http.Header, 4)
	rp.header(h)
	b.resp = http.Response{
		Status:        statusLine(rp.status),
		StatusCode:    rp.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		ContentLength: int64(max(len(rp.body), rp.size)),
		Body:          b,
		Request:       r,
	}
	return &b.resp, nil
}

// body is a RoundTrip response and its body, the reply, in one
// allocation.
type body struct {
	reply
	resp http.Response
}

// Close returns the pooled buffer the reply was encoded over.
func (b *body) Close() error {
	if b.off >= 0 && b.buf != nil {
		bodyBufs.Put(b.buf)
	}
	b.off = -1
	return nil
}

// next is what is left of rp's body up to the end of the current slice,
// or, when nothing is, how the body ends: a truncated segment in
// io.ErrUnexpectedEOF, as over a socket. A segment's body is lent from
// segmentPattern slice by slice.
func (rp *reply) next() ([]byte, error) {
	if rp.off < 0 {
		return nil, http.ErrBodyReadAfterClose
	}
	rest := rp.body
	if rp.sess != nil {
		at := rp.off % len(segmentPattern)
		rest = segmentPattern[at:min(len(segmentPattern), at+rp.deliver-rp.off)]
	} else {
		rest = rest[rp.off:]
	}
	switch {
	case len(rest) > 0:
		return rest, nil
	case rp.deliver < rp.size:
		return nil, io.ErrUnexpectedEOF
	}
	return nil, io.EOF
}

func (rp *reply) Read(p []byte) (int, error) {
	rest, err := rp.next()
	n := copy(p, rest)
	rp.off += n
	return n, err
}

// WriteTo hands w the body's own slices, one Write per slice: a sink that
// only counts never copies a byte.
func (rp *reply) WriteTo(w io.Writer) (n int64, err error) {
	for {
		rest, err := rp.next()
		if err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		m, err := w.Write(rest)
		rp.off += m
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
}

// Record serves r with h into a buffer and returns what h wrote as r's
// response: RoundTrip's way to everything that is not a client route. A
// handler that aborts with http.ErrAbortHandler is a transport error, as
// over a socket.
func Record(h http.Handler, r *http.Request) (resp *http.Response, err error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			panic(p)
		} else if p != nil {
			resp, err = nil, errAborted
		}
	}()
	// ServeMux records its match in the request it routes, and a
	// RoundTripper must not modify its request.
	rec, sr := httptest.NewRecorder(), r.Clone(r.Context())
	if sr.Body == nil {
		sr.Body = http.NoBody
	}
	h.ServeHTTP(rec, sr)
	resp = rec.Result()
	resp.Request = r
	if r.Method == http.MethodHead {
		resp.Body = http.NoBody
	}
	return resp, nil
}
